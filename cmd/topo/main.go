// Command topo prints the simulated cluster's hardware calibration: the
// GPU profile, PCIe topology and InfiniBand fabric parameters that every
// benchmark runs against, with the paper-reported numbers they are
// calibrated to.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gpuddt/internal/gpu"
	"gpuddt/internal/ib"
	"gpuddt/internal/pcie"
	"gpuddt/internal/sim"
)

// Run executes the command against args (without the program name) and
// returns the process exit code.
func Run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("topo", flag.ContinueOnError)
	fs.SetOutput(errOut)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	g := gpu.KeplerK40()
	p := pcie.DefaultParams()
	f := ib.DefaultParams()

	fmt.Fprintf(out, "Simulated cluster: 2 node(s) x 2 %s GPU(s)\n\n", g.Name)

	fmt.Fprintf(out, "GPU (%s):\n", g.Name)
	fmt.Fprintf(out, "  SMs                      %d (default grid %d blocks)\n", g.SMCount, g.DefaultBlocks)
	fmt.Fprintf(out, "  raw DRAM bandwidth       %.0f GB/s (cudaMemcpy D2D ~%.0f GB/s effective)\n",
		g.DRAMRawGBps, g.DRAMRawGBps/2*g.MemcpyD2DEff)
	fmt.Fprintf(out, "  per-block raw rate       %.0f GB/s\n", g.PerBlockRawGBps)
	fmt.Fprintf(out, "  kernel launch            %v, memcpy call %v\n", g.KernelLaunch, g.MemcpyOverhead)
	fmt.Fprintf(out, "  vector kernel eff        %.0f%% of peak (paper: 94%%)\n", 100*g.VectorKernelEff)
	fmt.Fprintf(out, "  DEV kernel eff           %.0f%% base; penalties: misaligned +%dB, partial +%dB raw/unit\n",
		100*g.DEVKernelEff, g.MisalignPenaltyRaw, g.PartialPenaltyRaw)
	fmt.Fprintf(out, "  memcpy2d pitch cliff     %.0f%% aligned / %.0f%% misaligned, %v per row\n",
		100*g.Memcpy2DAlignedEff, 100*g.Memcpy2DMisalignedEff, g.Memcpy2DPerRow)
	fmt.Fprintf(out, "  device memory            %.1f GiB simulated\n\n", float64(g.MemBytes)/(1<<30))

	fmt.Fprintf(out, "PCIe (per node):\n")
	fmt.Fprintf(out, "  root complex             %.1f GB/s per direction, %v per hop\n", p.RootGBps, p.HopLatency)
	fmt.Fprintf(out, "  GPU slots                %.1f GB/s per direction (P2P bypasses the root)\n", p.SlotGBps)
	fmt.Fprintf(out, "  host memory bus          %.0f GB/s raw (memcpy ~%.0f GB/s)\n", p.HostBusRawGBps, p.HostBusRawGBps/2)
	fmt.Fprintf(out, "  CUDA IPC map             %v one-time per handle\n\n", p.IPCMapCost)

	fmt.Fprintf(out, "InfiniBand (FDR):\n")
	fmt.Fprintf(out, "  wire                     %.1f GB/s per direction, %v latency\n", f.WireGBps, f.Latency)
	fmt.Fprintf(out, "  message post             %v; registration %v (cached)\n", f.PerMsgOverhead, f.RegCost)
	fmt.Fprintf(out, "  GPUDirect RDMA (large)   %.1f GB/s (why large transfers stage through host)\n\n", f.GPUDirectReadGBps)

	fmt.Fprintf(out, "Derived sanity numbers:\n")
	oneMB := int64(1 << 20)
	fmt.Fprintf(out, "  1 MiB over PCIe root     %v\n", sim.TimeForBytes(oneMB, p.RootGBps))
	fmt.Fprintf(out, "  1 MiB over IB wire       %v\n", sim.TimeForBytes(oneMB, f.WireGBps))
	fmt.Fprintf(out, "  1 MiB cudaMemcpy D2D     %v\n", sim.TimeForBytes(2*oneMB, g.DRAMRawGBps))
	return 0
}

func main() {
	os.Exit(Run(os.Args[1:], os.Stdout, os.Stderr))
}
