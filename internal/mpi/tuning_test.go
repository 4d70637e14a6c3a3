package mpi

import (
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// twoRankConfig is a minimal two-node world.
func twoRankConfig() Config {
	return Config{Ranks: []Placement{{Node: 0}, {Node: 1}}}
}

// protoSpans runs one 1 KiB host send and returns which protocol spans
// it produced.
func protoSpans(t *testing.T, cfg Config) map[string]bool {
	t.Helper()
	dt := datatype.Contiguous(128, datatype.Int64)
	w := NewWorld(cfg)
	rec := sim.NewRecorder(w.Engine())
	w.Run(func(m *Rank) {
		buf := m.MallocHost(dt.Size())
		if m.Rank() == 0 {
			mem.FillPattern(buf, 3)
			m.Send(buf, dt, 1, 1, 9)
		} else {
			m.Recv(buf, dt, 1, 0, 9)
		}
	})
	seen := map[string]bool{}
	for _, tk := range rec.Tracks() {
		for _, sp := range tk.Spans {
			seen[sp.Name] = true
		}
	}
	return seen
}

// TestEagerZeroSentinel: Tuning.Eager's pointer makes an explicit 0 a
// real setting (force rendezvous) instead of an alias for "unset".
func TestEagerZeroSentinel(t *testing.T) {
	// nil Eager: the default, so a 1 KiB message goes eagerly.
	cfg := twoRankConfig()
	cfg.Tuning = &Tuning{}
	if seen := protoSpans(t, cfg); !seen["mpi.eager.send"] || seen["mpi.rts"] {
		t.Fatal("default tuning did not send a 1 KiB message eagerly")
	}
	// Eager(0): genuinely forces rendezvous for every message.
	cfg = twoRankConfig()
	cfg.Tuning = &Tuning{Eager: Eager(0)}
	if seen := protoSpans(t, cfg); seen["mpi.eager.send"] || !seen["mpi.rts"] {
		t.Fatal("Eager(0) did not force the rendezvous protocol")
	}
}

// TestTuningDefaults pins the resolved default knob set — the values
// every committed golden trace was recorded under.
func TestTuningDefaults(t *testing.T) {
	w := NewWorld(twoRankConfig())
	tun := w.Tuning()
	if *tun.Eager != 64<<10 || tun.FragBytes != 1<<20 ||
		tun.Collectives != CollAuto || tun.DirectRemoteUnpack {
		t.Fatalf("unexpected default tuning: %+v", tun)
	}
	if tun.Strategy == nil || tun.Strategy.Name() != (&PipelinedStrategy{}).Name() {
		t.Fatal("default strategy is not the pipelined one")
	}
}
