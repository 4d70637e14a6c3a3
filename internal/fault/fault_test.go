package fault

import (
	"errors"
	"fmt"
	"testing"

	"gpuddt/internal/sim"
)

// run evaluates fn on a fresh engine process and returns the end time.
func run(t *testing.T, fn func(p *sim.Proc)) sim.Time {
	t.Helper()
	e := sim.NewEngine()
	e.Spawn("t", fn)
	e.Run()
	return e.Now()
}

func TestNilInjectorIsFree(t *testing.T) {
	var in *Injector
	end := run(t, func(p *sim.Proc) {
		for i := 0; i < 100; i++ {
			if err := in.Check(p, PCIeCopy, 1024); err != nil {
				t.Errorf("nil injector injected: %v", err)
			}
			if in.Evict(p, IBRegEvict) {
				t.Error("nil injector evicted")
			}
		}
	})
	if end != 0 {
		t.Fatalf("nil injector charged %v of virtual time", end)
	}
	if in.Enabled() || in.Total() != 0 {
		t.Fatal("nil injector claims activity")
	}
}

func TestDeterministicDecisions(t *testing.T) {
	decide := func() []bool {
		in := NewInjector(NewPlan(42, 0.3))
		var out []bool
		run(t, func(p *sim.Proc) {
			for i := 0; i < 200; i++ {
				out = append(out, in.Check(p, IBSend, 64) != nil)
			}
		})
		return out
	}
	a, b := decide(), decide()
	var hits int
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical runs", i)
		}
		if a[i] {
			hits++
		}
	}
	if hits == 0 || hits == len(a) {
		t.Fatalf("rate 0.3 produced %d/%d faults", hits, len(a))
	}
	// A different seed must flip at least one decision.
	in2 := NewInjector(NewPlan(43, 0.3))
	diff := false
	run(t, func(p *sim.Proc) {
		for i := range a {
			if (in2.Check(p, IBSend, 64) != nil) != a[i] {
				diff = true
			}
		}
	})
	if !diff {
		t.Fatal("seeds 42 and 43 produced identical decision streams")
	}
}

func TestPersistentSiteAlwaysFaults(t *testing.T) {
	pl := NewPlan(7, 0)
	pl.Persistent[IPCOpen] = true
	in := NewInjector(pl)
	run(t, func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			if in.Check(p, IPCOpen, 4096) == nil {
				t.Fatal("persistent site succeeded")
			}
			if in.Check(p, PCIeCopy, 4096) != nil {
				t.Fatal("rate-0 transient site faulted")
			}
		}
	})
	if got := in.Injected()[IPCOpen]; got != 20 {
		t.Fatalf("injected[IPCOpen] = %d, want 20", got)
	}
}

// TestDetectionLatencyCharged pins the detection policy: each site
// class charges its victim its own latency before the error surfaces.
func TestDetectionLatencyCharged(t *testing.T) {
	want := map[Site]sim.Time{
		IBSend:       25 * sim.Microsecond,
		RDMAWrite:    50 * sim.Microsecond,
		RDMARead:     50 * sim.Microsecond,
		IBRegister:   2 * sim.Microsecond,
		PCIeCopy:     2 * sim.Microsecond,
		KernelLaunch: 2 * sim.Microsecond,
		IPCOpen:      2 * sim.Microsecond,
	}
	for site, lat := range want {
		pl := NewPlan(1, 0)
		pl.Persistent[site] = true
		in := NewInjector(pl)
		end := run(t, func(p *sim.Proc) {
			if err := in.Check(p, site, 64); err == nil {
				t.Fatalf("%s: expected fault", site)
			}
		})
		if end != lat {
			t.Errorf("%s: detection charged %v, want %v", site, end, lat)
		}
	}
}

func TestDroppedCompletionFlavor(t *testing.T) {
	in := NewInjector(NewPlan(5, 0.5))
	var delivered, dropped int
	run(t, func(p *sim.Proc) {
		for i := 0; i < 400; i++ {
			if err := in.Check(p, RDMAWrite, 1<<20); err != nil {
				if WasDelivered(err) {
					delivered++
				} else {
					dropped++
				}
			}
		}
	})
	if delivered == 0 || dropped == 0 {
		t.Fatalf("RDMA fault flavors unbalanced: delivered=%d dropped=%d", delivered, dropped)
	}
	if WasDelivered(nil) {
		t.Fatal("WasDelivered(nil)")
	}
}

// TestBackoffShape pins the retry policy: the budget, and a backoff
// that doubles from 2 µs until it reaches the 250 µs cap.
func TestBackoffShape(t *testing.T) {
	if MaxAttempts != 10 {
		t.Fatalf("MaxAttempts = %d, want 10", MaxAttempts)
	}
	want := []sim.Time{2, 4, 8, 16, 32, 64, 128, 250, 250, 250}
	for a, w := range want {
		if d := Backoff(a); d != w*sim.Microsecond {
			t.Errorf("Backoff(%d) = %v, want %v", a, d, w*sim.Microsecond)
		}
	}
	if d := Backoff(1000); d != 250*sim.Microsecond {
		t.Errorf("Backoff(1000) = %v, want the cap", d)
	}
}

// TestSentinelClassification asserts every injected error matches
// exactly one of the two sentinel classes under errors.Is, wrapped or
// not, and that WasDelivered survives wrapping.
func TestSentinelClassification(t *testing.T) {
	pl := NewPlan(1, 1.0)
	pl.Persistent[IPCOpen] = true
	in := NewInjector(pl)
	run(t, func(p *sim.Proc) {
		hard := in.Check(p, IPCOpen, 64)
		if hard == nil {
			t.Fatal("persistent site did not fault")
		}
		if !errors.Is(hard, ErrPersistent) || errors.Is(hard, ErrTransient) {
			t.Fatalf("persistent fault misclassified: %v", hard)
		}
		soft := in.Check(p, PCIeCopy, 64)
		if soft == nil {
			t.Fatal("rate-1.0 site did not fault")
		}
		if !errors.Is(soft, ErrTransient) || errors.Is(soft, ErrPersistent) {
			t.Fatalf("transient fault misclassified: %v", soft)
		}
		wrapped := fmt.Errorf("pml: %w", hard)
		if !errors.Is(wrapped, ErrPersistent) {
			t.Fatal("wrapping lost the persistent classification")
		}
		var delivered error
		for i := 0; delivered == nil && i < 64; i++ {
			if err := in.Check(p, RDMAWrite, 64); WasDelivered(err) {
				delivered = fmt.Errorf("frag 3: %w", err)
			}
		}
		if delivered == nil {
			t.Fatal("no dropped-completion fault in 64 rolls at rate 1.0")
		}
		if !WasDelivered(delivered) {
			t.Fatal("WasDelivered does not unwrap")
		}
	})
}
