// Package fault implements deterministic fault injection for the
// simulated cluster. A Plan describes which sites may fail and how
// often; an Injector evaluates the plan at runtime. Decisions are pure
// functions of (seed, site, occurrence counter), so a run with a given
// plan is exactly reproducible and a run with a nil plan is
// byte-identical to a run without the subsystem: every hook is a method
// on a possibly-nil *Injector that returns immediately.
//
// Faults are charged virtual time. Detecting a failure is not free on
// real hardware — a send timeout burns the timeout, a dropped RDMA
// completion burns the ACK window — so every injected fault sleeps its
// site's detection latency on the victim process before the error
// surfaces. Retry backoff (see Backoff) is likewise virtual time. This
// keeps fault handling inside the performance model instead of beside
// it: a chaos run's figures are the figures of a faulty machine. A plan
// says only what fails; what detection costs and how retries back off
// is one policy, stated here for every run.
package fault

import (
	"errors"
	"fmt"

	"gpuddt/internal/mem"
	"gpuddt/internal/sim"
)

// Sentinel error classes every injected fault maps onto. Callers decide
// recovery with errors.Is: a transient fault is worth the retry budget,
// a persistent fault fails every probe and the only useful reaction is
// protocol degradation (e.g. the staged copy-in/out downgrade when the
// P2P path is dead). Every *Error matches exactly one of the two.
var (
	// ErrTransient classifies faults that may succeed on retry.
	ErrTransient = errors.New("fault: transient")
	// ErrPersistent classifies hard faults that fail on every probe.
	ErrPersistent = errors.New("fault: persistent")
)

// Site names an injection point in the stack.
type Site string

// Injection sites. Each corresponds to one hook in internal/ib,
// internal/pcie, internal/cuda or internal/gpu.
const (
	// IBSend fails message injection at the HCA (a send timeout).
	// Nothing is delivered.
	IBSend Site = "ib.send"
	// RDMAWrite fails an RDMA write. Half of the injected faults are
	// dropped completions: the payload lands remotely but the local
	// completion is lost (Error.Delivered reports which).
	RDMAWrite Site = "ib.rdma.write"
	// RDMARead fails an RDMA read, symmetric with RDMAWrite.
	RDMARead Site = "ib.rdma.read"
	// IBRegister fails pinning a memory region with the HCA.
	IBRegister Site = "ib.register"
	// IBRegEvict forces a registration-cache hit to behave as a miss
	// (an eviction storm): no error, only the re-registration cost.
	IBRegEvict Site = "ib.reg.evict"
	// PCIeCopy fails a synchronous copy (cudaMemcpy/cudaMemcpy2D or a
	// host-bus bounce copy) before any byte moves.
	PCIeCopy Site = "pcie.copy"
	// KernelLaunch fails a pack/unpack kernel launch. The device
	// retries autonomously (see gpu.Device); the fault never surfaces
	// past the stream, only its latency does.
	KernelLaunch Site = "gpu.launch"
	// IPCOpen fails mapping a peer process's device allocation
	// (cudaIpcOpenMemHandle). Persistent IPCOpen faults are how a
	// broken P2P path is modeled; the PML must downgrade to staged
	// copy-in/out.
	IPCOpen Site = "cuda.ipc.open"
)

// Sites lists every injection site.
func Sites() []Site {
	return []Site{IBSend, RDMAWrite, RDMARead, IBRegister, IBRegEvict, PCIeCopy, KernelLaunch, IPCOpen}
}

// Error is an injected fault, carrying enough context to log and to
// decide recovery. It satisfies error.
type Error struct {
	Site Site
	At   sim.Time // virtual time of the decision
	N    int64    // bytes the failed operation covered
	Seq  uint64   // per-site occurrence number that faulted
	// Delivered reports that the operation's payload reached memory
	// before the completion was lost (dropped RDMA completion): the
	// caller's retry must be idempotent, not compensating.
	Delivered bool
	// Persistent reports that the site is marked permanently faulted in
	// the plan: retrying cannot succeed. Matched by errors.Is against
	// ErrPersistent (and its absence against ErrTransient).
	Persistent bool
}

func (e *Error) Error() string {
	d := ""
	if e.Delivered {
		d = " (payload delivered, completion lost)"
	}
	k := "transient"
	if e.Persistent {
		k = "persistent"
	}
	return fmt.Sprintf("fault: injected %s %s failure at %v (op %d, %d bytes)%s", k, e.Site, e.At, e.Seq, e.N, d)
}

// Is classifies the fault for errors.Is: every injected error matches
// exactly one of ErrTransient and ErrPersistent.
func (e *Error) Is(target error) bool {
	switch target {
	case ErrPersistent:
		return e.Persistent
	case ErrTransient:
		return !e.Persistent
	}
	return false
}

// WasDelivered reports whether err is an injected fault whose payload
// landed despite the lost completion.
func WasDelivered(err error) bool {
	var fe *Error
	return errors.As(err, &fe) && fe.Delivered
}

// Plan is the declarative fault schedule: which sites fail and how
// often. The zero value injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision.
	Seed uint64

	// Rates maps a site to its per-occurrence fault probability in
	// [0, 1). Sites absent from the map never fault probabilistically.
	Rates map[Site]float64

	// Persistent marks sites that fail on every probe — hard faults
	// (e.g. a dead P2P path) that no retry budget survives, forcing
	// protocol degradation.
	Persistent map[Site]bool
}

// NewPlan returns a plan seeded with seed that faults every transient
// site with probability rate. Tune Rates/Persistent afterwards. The
// eviction-storm site gets the same rate (it is latency-only).
func NewPlan(seed uint64, rate float64) *Plan {
	pl := &Plan{
		Seed:       seed,
		Rates:      make(map[Site]float64),
		Persistent: make(map[Site]bool),
	}
	for _, s := range Sites() {
		pl.Rates[s] = rate
	}
	return pl
}

// Detection latencies: the virtual time a fault costs its victim before
// the error surfaces.
const (
	localDetect = 2 * sim.Microsecond  // a local fault: copy, launch, IPC map, registration
	sendTimeout = 25 * sim.Microsecond // a send timeout
	ackTimeout  = 50 * sim.Microsecond // a lost RDMA completion
)

// MaxAttempts bounds every retry loop (PML fragment retries, autonomous
// kernel relaunch), with or without a plan installed.
const MaxAttempts = 10

// Backoff returns the capped exponential backoff to sleep before retry
// number attempt+1 (attempt counts from 0): 2 µs doubling, capped at
// 250 µs.
func Backoff(attempt int) sim.Time {
	const base, cap = 2 * sim.Microsecond, 250 * sim.Microsecond
	if attempt > 30 {
		attempt = 30
	}
	return min(base<<uint(attempt), cap)
}

// Injector evaluates a Plan at runtime. One Injector serves a whole
// simulated world; the engine is single-threaded so no locking is
// needed. A nil *Injector is valid and injects nothing at zero cost.
type Injector struct {
	plan     Plan
	seq      map[Site]uint64
	injected map[Site]int64
}

// NewInjector compiles a plan. A nil plan yields a nil injector.
func NewInjector(pl *Plan) *Injector {
	if pl == nil {
		return nil
	}
	return &Injector{
		plan:     *pl,
		seq:      make(map[Site]uint64),
		injected: make(map[Site]int64),
	}
}

func siteHash(s Site) uint64 {
	h := uint64(14695981039346656037) // FNV-1a
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// roll makes the deterministic decision for the site's next occurrence,
// returning the occurrence number, whether it faults, and the raw hash
// (whose spare bits pick the fault flavor).
func (in *Injector) roll(site Site) (seq uint64, hit bool, h uint64) {
	seq = in.seq[site]
	in.seq[site] = seq + 1
	if in.plan.Persistent[site] {
		return seq, true, 0
	}
	rate := in.plan.Rates[site]
	if rate <= 0 {
		return seq, false, 0
	}
	h = mem.Mix64(in.plan.Seed ^ siteHash(site) ^ (seq * 0x9e3779b97f4a7c15))
	return seq, float64(h>>11)/(1<<53) < rate, h
}

// detectLatency resolves the virtual-time cost of discovering a fault
// at the given site.
func detectLatency(site Site) sim.Time {
	switch site {
	case IBSend:
		return sendTimeout
	case RDMAWrite, RDMARead:
		return ackTimeout
	default:
		return localDetect
	}
}

// Check probes the site for its next occurrence. On a fault it charges
// the site's detection latency on p under a "fault.inject" span, bumps
// the "fault.<site>" counter, and returns a *Error; otherwise it
// returns nil. Safe (and free) on a nil receiver.
func (in *Injector) Check(p *sim.Proc, site Site, n int64) error {
	if in == nil {
		return nil
	}
	seq, hit, h := in.roll(site)
	if !hit {
		return nil
	}
	in.injected[site]++
	p.Count("fault."+string(site), 1)
	e := &Error{Site: site, At: p.Now(), N: n, Seq: seq, Persistent: in.plan.Persistent[site]}
	// A dropped completion delivers the payload; use a spare hash bit
	// so half the RDMA faults exercise the idempotent-replay path.
	if (site == RDMAWrite || site == RDMARead) && h&1 == 1 {
		e.Delivered = true
	}
	sp := p.BeginBytes("fault.inject", n)
	sp.SetDetail(string(site))
	p.Sleep(detectLatency(site))
	sp.End()
	return e
}

// Evict probes the eviction-storm site: true means the caller should
// treat its cache hit as a miss. No error, no latency — the cost is the
// re-registration the caller performs. Safe on a nil receiver.
func (in *Injector) Evict(p *sim.Proc, site Site) bool {
	if in == nil {
		return false
	}
	_, hit, _ := in.roll(site)
	if hit {
		in.injected[site]++
		p.Count("fault."+string(site), 1)
	}
	return hit
}

// Injected returns a copy of the per-site injected-fault totals.
func (in *Injector) Injected() map[Site]int64 {
	out := make(map[Site]int64)
	if in == nil {
		return out
	}
	for s, n := range in.injected {
		out[s] = n
	}
	return out
}

// Total returns the number of faults injected so far.
func (in *Injector) Total() int64 {
	if in == nil {
		return 0
	}
	var t int64
	for _, n := range in.injected {
		t += n
	}
	return t
}
