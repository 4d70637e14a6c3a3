package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"gpuddt/internal/datatype"
	"gpuddt/internal/fault"
	"gpuddt/internal/mem"
	"gpuddt/internal/shapes"
	"gpuddt/internal/sim"
)

// chaosTuning forces the rendezvous pipeline through many small
// fragments so faults land mid-protocol, not just at the handshake.
func chaosTuning() *Tuning {
	return &Tuning{Eager: Eager(1), FragBytes: 8 << 10}
}

// chaosStrided is the strided layout every chaos transfer sends: 16 KiB
// packed per element, four elements, eight fragments under
// chaosTuning.
var chaosStrided = shapes.SubMatrix(128, 128, 256)

// chaosXfer runs one GPU-to-GPU transfer of four elements, sdt on the
// sender and rdt on the receiver, under the given fault plan and
// returns the world (post-run) plus whether the payload arrived intact.
func chaosXfer(t *testing.T, cfg Config, rec **sim.Recorder, sdt, rdt *datatype.Datatype) (*World, bool) {
	t.Helper()
	const count = 4
	w := NewWorld(cfg)
	if rec != nil {
		*rec = sim.NewRecorder(w.Engine())
	}
	var sent, got []byte
	w.Run(func(m *Rank) {
		switch m.Rank() {
		case 0:
			buf := m.Malloc(sdt.Span(count))
			mem.FillPattern(buf, 42)
			sent = cpuPack(sdt, count, buf.Bytes())
			m.Send(buf, sdt, count, 1, 9)
		case 1:
			buf := m.Malloc(rdt.Span(count))
			m.Recv(buf, rdt, count, 0, 9)
			got = cpuPack(rdt, count, buf.Bytes())
		}
	})
	return w, bytes.Equal(sent, got)
}

func TestChaosTransientFaultsRecovered(t *testing.T) {
	cfg := twoRanksTwoGPUs()
	cfg.Tuning = chaosTuning()
	cfg.Faults = fault.NewPlan(7, 0.15)
	var rec *sim.Recorder
	w, ok := chaosXfer(t, cfg, &rec, chaosStrided, chaosStrided)
	if !ok {
		t.Fatal("payload corrupted under transient faults")
	}
	if w.Faults().Total() == 0 {
		t.Fatal("plan at rate 0.15 injected nothing; chaos run is vacuous")
	}
	if rec.Counter("mpi.retry") == 0 && rec.Counter("gpu.launch.retry") == 0 {
		t.Fatal("faults injected but no retry recorded")
	}
}

// TestChaosScratchNoLeak drives each zero-copy protocol into its staged
// fallback with a persistent CUDA IPC fault, on one GPU and on two: the
// SM ring, whose receiver cannot map the sender's ring and aborts
// through the ACK stream (the sender has fragments in flight, which the
// fallback must not read); the pack into a contiguous receiver, whose
// sender cannot map the window and answers with a failure event; and
// the sender's contiguous window, whose receiver cannot map it and
// commands a worker that was never spawned. Each must fall back,
// deliver intact bytes, and give back every staging buffer the
// abandoned attempt held, and every message record to its free list.
func TestChaosScratchNoLeak(t *testing.T) {
	dense := datatype.Contiguous(128*128, datatype.Float64) // chaosStrided's bytes, gap-free
	for _, path := range []struct {
		name     string
		sdt, rdt *datatype.Datatype
		attempt  string // the sender's zero-copy span; the window path has none
	}{
		{"ring", chaosStrided, chaosStrided, "mpi.send.ring"},
		{"pack-direct", chaosStrided, dense, "mpi.send.direct"},
		{"sender-window", dense, chaosStrided, ""},
	} {
		for _, topo := range []struct {
			name string
			cfg  func() Config
		}{{"1gpu", twoRanksSameGPU}, {"2gpu", twoRanksTwoGPUs}} {
			cfg := topo.cfg()
			cfg.Tuning = chaosTuning()
			cfg.Faults = fault.NewPlan(11, 0)
			cfg.Faults.Persistent[fault.IPCOpen] = true
			var rec *sim.Recorder
			w, ok := chaosXfer(t, cfg, &rec, path.sdt, path.rdt)
			what := path.name + "." + topo.name
			if !ok {
				t.Errorf("%s: payload corrupted across protocol fallback", what)
			}
			if rec.Counter("mpi.fallback") == 0 {
				t.Errorf("%s: persistent P2P fault did not downgrade the protocol", what)
			}
			ran := map[string]bool{}
			for _, tr := range rec.Tracks() {
				for _, sp := range tr.Spans {
					ran[sp.Name] = true
				}
			}
			for _, want := range []string{path.attempt, "mpi.send.ib"} {
				if want != "" && !ran[want] {
					t.Errorf("%s: no %s span: the transfer took another path", what, want)
				}
			}
			if path.attempt == "" && (ran["mpi.send.ring"] || ran["mpi.send.direct"]) {
				t.Errorf("%s: the sender ran a zero-copy attempt", what)
			}
			if err := w.Quiescent(); err != nil {
				t.Errorf("%s: %v", what, err)
			}
		}
	}
}

// TestChaosDeterminism pins the fault subsystem's core contract: the
// same plan seed yields a bit-identical run — same virtual end time,
// same per-site injection counts — no matter how often it repeats.
func TestChaosDeterminism(t *testing.T) {
	run := func(seed uint64) (sim.Time, map[fault.Site]int64) {
		cfg := twoRanksTwoGPUs()
		cfg.Tuning = chaosTuning()
		cfg.Faults = fault.NewPlan(seed, 0.12)
		w, ok := chaosXfer(t, cfg, nil, chaosStrided, chaosStrided)
		if !ok {
			t.Fatal("payload corrupted")
		}
		return w.Engine().Now(), w.Faults().Injected()
	}
	t1, c1 := run(3)
	t2, c2 := run(3)
	if t1 != t2 {
		t.Fatalf("same seed, different end times: %v vs %v", t1, t2)
	}
	if len(c1) != len(c2) {
		t.Fatalf("same seed, different injection sites: %v vs %v", c1, c2)
	}
	for s, n := range c1 {
		if c2[s] != n {
			t.Fatalf("same seed, site %s injected %d vs %d", s, n, c2[s])
		}
	}
}

// TestChaosConcurrentRetries runs chaotic worlds on parallel goroutines
// (the shape of the parallel bench driver) so the race detector can see
// any shared mutable state on the retry/fallback paths.
func TestChaosConcurrentRetries(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := twoRanksTwoGPUs()
			cfg.Tuning = chaosTuning()
			cfg.Faults = fault.NewPlan(uint64(100+i), 0.1)
			if i%2 == 1 {
				cfg.Faults.Persistent[fault.IPCOpen] = true
			}
			if _, ok := chaosXfer(t, cfg, nil, chaosStrided, chaosStrided); !ok {
				errs <- "payload corrupted"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestRetryBudgetExhausted: with every PCIe copy faulting, withRetry
// makes exactly fault.MaxAttempts attempts, charging each one's 2 µs
// detection and the doubling backoff between them, and mustRetry turns
// the exhausted budget into a panic that names it.
func TestRetryBudgetExhausted(t *testing.T) {
	cfg := twoRanksTwoGPUs()
	cfg.Faults = fault.NewPlan(1, 0)
	cfg.Faults.Rates[fault.PCIeCopy] = 1.0
	w := NewWorld(cfg)
	var attempts int
	var took sim.Time
	var err error
	var msg string
	w.Run(func(m *Rank) {
		if m.Rank() != 0 {
			return
		}
		p := m.Proc()
		try := func() error {
			attempts++
			return m.w.faults.Check(p, fault.PCIeCopy, 64)
		}
		start := p.Now()
		err = m.withRetry(p, "copy", try)
		took = p.Now() - start
		defer func() { msg = fmt.Sprint(recover()) }()
		m.mustRetry(p, "copy", try)
	})
	if attempts != 20 {
		t.Fatalf("withRetry then mustRetry made %d attempts, want 10 each", attempts)
	}
	if !errors.Is(err, fault.ErrTransient) {
		t.Fatalf("exhausted withRetry returned %v", err)
	}
	backoff := (2 + 4 + 8 + 16 + 32 + 64 + 128 + 250 + 250) * sim.Microsecond
	if want := 10*2*sim.Microsecond + backoff; took != want {
		t.Fatalf("exhausted withRetry took %v, want %v", took, want)
	}
	if !strings.Contains(msg, "copy failed after 10 attempts") {
		t.Fatalf("mustRetry did not panic naming the budget: %q", msg)
	}
}
