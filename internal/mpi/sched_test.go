package mpi

import (
	"fmt"
	"testing"
)

// TestSchedMatches walks every member's steps of every schedule over 1
// to 9 members and every root, and checks what the two sides agree on:
// each send meets one receive at its peer with the sender as peer, the
// same tag and the same block (the sender's, in the exchange, whose send
// view is indexed by destination); the pairwise exchange and the ring move
// every block but the member's own once to every member; a gather, a
// scatter and a broadcast move one block to or from each member but
// the root; every step lies in Len and the last one waits.
func TestSchedMatches(t *testing.T) {
	type msg struct{ from, to, tag, block int }
	for _, alg := range []Alg{Pairwise, Ring, Gather, Scatter, Bcast} {
		for n := 1; n <= 9; n++ {
			for root := 0; root < n; root++ {
				what := fmt.Sprintf("alg %d n=%d root=%d", alg, n, root)
				sends, recvs := map[msg]int{}, map[msg]int{}
				for me := 0; me < n; me++ {
					s := Sched{Alg: alg, N: n, Me: me, Root: root}
					for i := 0; i < s.Len(); i++ {
						st := s.Step(i)
						if alg == Pairwise && (st.Op == OpSend || st.Op == OpRecv) {
							if st.Block != st.Peer {
								t.Fatalf("%s: member %d step %d moves block %d with member %d", what, me, i, st.Block, st.Peer)
							}
							// A send view is indexed by destination, a
							// receive view by source: name the sender's.
							if st.Op == OpSend {
								st.Block = me
							}
						}
						switch st.Op {
						case OpSend:
							sends[msg{me, st.Peer, st.Tag, st.Block}]++
						case OpRecv:
							recvs[msg{st.Peer, me, st.Tag, st.Block}]++
						}
					}
					if l := s.Len(); l > 0 && s.Step(l-1).Op != OpWait && s.Step(l-1).Op != OpWaitSend {
						t.Errorf("%s: member %d ends on op %d", what, me, s.Step(l-1).Op)
					}
				}
				want := n - 1 // one message per member but the root
				if alg == Pairwise || alg == Ring {
					want = n * (n - 1)
				}
				if len(sends) != want || fmt.Sprint(sends) != fmt.Sprint(recvs) {
					t.Errorf("%s: %d distinct sends, want %d\nsends %v\nrecvs %v", what, len(sends), want, sends, recvs)
				}
			}
		}
	}
}
