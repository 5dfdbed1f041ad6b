// Command mrts-isa runs the encoder micro-kernels on the functional
// hardware models — the LEON-class RISC core (internal/leon) and a CG-EDPE
// of the coarse-grained fabric (internal/cgedpe) — and prints the measured
// cycle counts next to the ISE library's latency constants. This is the
// calibration evidence behind the latency numbers the runtime system
// selects on.
//
//	mrts-isa
package main

import (
	"fmt"
	"os"

	"mrts/internal/arch"
	"mrts/internal/exp"
	"mrts/internal/fgfabric"
)

func main() {
	fmt.Println("Micro-kernel calibration: functional hardware models vs. ISE library")
	sad, err := exp.Calibration(os.Stdout)
	check(err)

	fmt.Printf("\nmeasured SAD speedup on the CG fabric: %.1fx (both models agree on the value %d)\n",
		float64(sad.LEONCycles)/float64(sad.CGCycles), sad.Value)

	fmt.Printf("\nFG configuration path: a %d-byte partial bitstream at %d KB/s streams in %.2f ms (constant: %.2f ms)\n",
		fgfabric.BytesPerDataPath, arch.FGReconfigBandwidthKBps,
		fgfabric.StreamCycles(fgfabric.BytesPerDataPath).Millis(),
		arch.FGReconfigCycles.Millis())
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mrts-isa:", err)
		os.Exit(1)
	}
}
