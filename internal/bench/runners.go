package bench

// SweepConfig carries the sweep parameters shared by the figure
// runners; cmd/ddtbench drives the registry.
type SweepConfig struct {
	Sizes       []int   // kernel and ping-pong matrix sizes
	TrSizes     []int   // fig1/fig12 triangular/transpose sizes
	BlockCounts []int64 // fig8 block counts
}

// DefaultSweep is the full paper sweep (~minutes of wall clock).
func DefaultSweep() SweepConfig {
	return SweepConfig{
		Sizes:       DefaultSizes,
		TrSizes:     []int{512, 1024, 2048},
		BlockCounts: []int64{1024, 8192},
	}
}

// QuickSweep is the CI-friendly reduced sweep.
func QuickSweep() SweepConfig {
	return SweepConfig{
		Sizes:       []int{1024, 2048},
		TrSizes:     []int{256, 512},
		BlockCounts: []int64{1024},
	}
}

// Runner is one figure generator.
type Runner struct {
	ID    string
	Group string // selector alias ("ablations" expands to three figures)
	Run   func(cfg SweepConfig) *Figure
}

// Matches reports whether the runner is selected by the -figure value.
func (r Runner) Matches(sel string) bool {
	return sel == "all" || sel == r.ID || (r.Group != "" && sel == r.Group)
}

// Runners returns the figure registry in canonical output order.
func Runners() []Runner {
	return []Runner{
		{ID: "fig1", Run: func(c SweepConfig) *Figure { return Fig1Solutions(c.TrSizes) }},
		{ID: "fig6", Run: func(c SweepConfig) *Figure { return Fig6(c.Sizes) }},
		{ID: "fig7", Run: func(c SweepConfig) *Figure { return Fig7(c.Sizes) }},
		{ID: "fig8", Run: func(c SweepConfig) *Figure { return Fig8(c.BlockCounts, Fig8BlockSizes) }},
		{ID: "fig9", Run: func(c SweepConfig) *Figure { return Fig9(c.Sizes) }},
		{ID: "fig10a", Run: func(c SweepConfig) *Figure { return Fig10(OneGPU, c.Sizes) }},
		{ID: "fig10b", Run: func(c SweepConfig) *Figure { return Fig10(TwoGPU, c.Sizes) }},
		{ID: "fig10c", Run: func(c SweepConfig) *Figure { return Fig10(TwoNode, c.Sizes) }},
		{ID: "fig11", Run: func(c SweepConfig) *Figure { return Fig11(c.Sizes) }},
		{ID: "fig12", Run: func(c SweepConfig) *Figure { return Fig12(c.TrSizes) }},
		{ID: "sec5.3", Run: func(c SweepConfig) *Figure { return Sec53(2048, []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 30}) }},
		{ID: "sec5.4", Run: func(c SweepConfig) *Figure { return Sec54(2048, []float64{0, 0.25, 0.5, 0.75, 0.9}) }},
		{ID: "apps", Run: func(c SweepConfig) *Figure { return Apps() }},
		{ID: "whatif-gpu", Run: func(c SweepConfig) *Figure { return WhatIfGPU(4096) }},
		{ID: "overlap", Run: func(c SweepConfig) *Figure { return OverlapFigure([]int{256, 512, 1024}) }},
		{ID: "ablation-unitsize", Group: "ablations", Run: func(c SweepConfig) *Figure {
			return AblationUnitSize(2048, []int64{256, 512, 1024, 2048, 4096})
		}},
		{ID: "ablation-fragsize", Group: "ablations", Run: func(c SweepConfig) *Figure {
			return AblationPipeline(2048, []int64{128 << 10, 256 << 10, 512 << 10, 1 << 20, 2 << 20, 4 << 20})
		}},
		{ID: "ablation-remoteunpack", Group: "ablations", Run: func(c SweepConfig) *Figure {
			return AblationRemoteUnpack(c.Sizes)
		}},
	}
}

// RunAll executes the given runners — concurrently up to the configured
// parallelism — and returns their figures in input order.
func RunAll(rs []Runner, cfg SweepConfig) []*Figure {
	return pmap(len(rs), func(i int) *Figure { return rs[i].Run(cfg) })
}
