package mpi

import "testing"

// TestChannelIsDerived: a channel is a value derived from its two ranks
// (DESIGN decision 29), so asking for one allocates nothing, whichever
// the peer, and it reports the BTL and the HCAs its ranks' placements
// imply.
func TestChannelIsDerived(t *testing.T) {
	for _, tc := range []struct {
		topo       string
		cfg        Config
		kind       Kind
		sameDevice bool
	}{
		{"1gpu", twoRanksSameGPU(), SM, true},
		{"2gpu", twoRanksTwoGPUs(), SM, false},
		{"ib", twoNodes(), IB, false},
	} {
		w := NewWorld(tc.cfg)
		a, b := w.ranks[0], w.ranks[1]
		ch := a.channel(1)
		if ch.Kind() != tc.kind || ch.SameDevice() != tc.sameDevice || ch.Peer() != b {
			t.Errorf("%s: kind %v, same device %v, peer %d; want %v, %v, 1",
				tc.topo, ch.Kind(), ch.SameDevice(), ch.Peer().Rank(), tc.kind, tc.sameDevice)
		}
		if src, dst := ch.hcas(); src != w.hcas[a.place.Node] || dst != w.hcas[b.place.Node] {
			t.Errorf("%s: HCAs of nodes %d and %d, want %d and %d",
				tc.topo, src.Node().ID(), dst.Node().ID(), a.place.Node, b.place.Node)
		}
		w.Close()
	}

	w := NewWorld(fourRanks())
	defer w.Close()
	var ch Channel
	for _, m := range w.ranks {
		for peer := range w.ranks {
			if got := testing.AllocsPerRun(10, func() { ch = m.channel(peer) }); got != 0 {
				t.Errorf("rank %d channel(%d): %v allocations, want 0", m.rank, peer, got)
			}
			if ch.Peer() != w.ranks[peer] {
				t.Errorf("rank %d channel(%d) leads to rank %d", m.rank, peer, ch.Peer().Rank())
			}
		}
	}
}
