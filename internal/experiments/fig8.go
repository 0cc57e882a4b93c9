package experiments

import (
	"fmt"

	"minigraph/internal/stats"
	"minigraph/internal/uarch"
)

// Fig8Regs reproduces Figure 8 (top): performance with 164, 144, 124 and
// 104 physical registers, for the plain baseline and for integer and
// integer-memory mini-graph machines, all relative to the 164-register
// baseline. Mini-graphs allocate no registers for interior values, so they
// compensate for the reduction.
func Fig8Regs(o Options) (*Artifact, error) {
	benches, err := o.benchSet()
	if err != nil {
		return nil, err
	}
	// The 164-reg base arm canonicalizes to the same key as the reference,
	// so the engine simulates it once.
	arms := []arm{o.reference("reference")}
	for _, regs := range []int{164, 144, 124, 104} {
		cfg := uarch.Baseline()
		cfg.PhysRegs = regs
		cfg.Name = fmt.Sprintf("base-r%d", regs)
		arms = append(arms, baseArm(fmt.Sprintf("base/%d", regs), cfg))
		for _, kind := range []string{"int", "intmem"} {
			intMem := kind == "intmem"
			mcfg := o.machineFor(intMem, false)
			mcfg.PhysRegs = regs
			arms = append(arms, mgArm(fmt.Sprintf("%s/%d", kind, regs), policyFor(intMem, o.MaxSize), o.MGTEntries, mcfg, false))
		}
	}
	return o.speedupFigure("fig8reg", "Figure 8 (top): register-file reduction (relative to 164-reg baseline)", benches, arms)
}

// fig8bwBase builds the Figure 8 (bottom) baseline machine variants.
func fig8bwBase(kind string) uarch.Config {
	cfg := uarch.Baseline()
	switch kind {
	case "6wide":
	case "4wide":
		cfg.FetchWidth, cfg.RenameWidth, cfg.CommitWidth = 4, 4, 4
		cfg.IssueWidth = 4
		cfg.IntALUs, cfg.LoadPorts = 4, 1
	case "4wide+6exec":
		cfg.FetchWidth, cfg.RenameWidth, cfg.CommitWidth = 4, 4, 4
		cfg.IssueWidth = 6
		cfg.IntALUs, cfg.LoadPorts = 4, 2
	case "2cycle-sched":
		cfg.SchedCycles = 2
	}
	cfg.Name = "base-" + kind
	return cfg
}

// fig8bwMG is the integer-memory mini-graph machine on fig8bwBase(kind).
func fig8bwMG(kind string) uarch.Config {
	cfg := fig8bwBase(kind)
	cfg.IntALUs = cfg.IntALUs - 2
	cfg.APs = 2
	cfg.IntMemIssuePerCycle = 1
	cfg.Name = "mg-intmem-" + kind
	return cfg
}

// Fig8Bandwidth reproduces Figure 8 (bottom): 6-wide, 4-wide,
// 4-wide-with-6-execution-units, and 2-cycle-scheduler machines, with and
// without mini-graphs, relative to the 6-wide 1-cycle-scheduler baseline.
// The 6-wide base arm shares the reference's cache key.
func Fig8Bandwidth(o Options) (*Artifact, error) {
	benches, err := o.benchSet()
	if err != nil {
		return nil, err
	}
	arms := []arm{o.reference("reference")}
	for _, kind := range []string{"6wide", "4wide", "4wide+6exec", "2cycle-sched"} {
		arms = append(arms,
			baseArm("base/"+kind, fig8bwBase(kind)),
			mgArm("mg/"+kind, policyFor(true, o.MaxSize), o.MGTEntries, fig8bwMG(kind), false))
	}
	return o.speedupFigure("fig8bw", "Figure 8 (bottom): bandwidth/scheduler reduction (relative to 6-wide baseline)", benches, arms)
}

// ConfigTable renders the simulated machine description (§6).
func ConfigTable() *stats.Table {
	c := uarch.Baseline()
	t := stats.NewTable("Machine configuration (paper §6)", "parameter", "value")
	t.AddRowf("pipeline", fmt.Sprintf("%d-wide, %d-stage front end + sched/regread/exec", c.FetchWidth, c.FrontendDepth))
	t.AddRowf("reorder buffer", c.ROBSize)
	t.AddRowf("load/store queue", c.LSQSize)
	t.AddRowf("issue queue", c.IQSize)
	t.AddRowf("physical registers", fmt.Sprintf("%d (%d read / %d write ports, %d-cycle read)", c.PhysRegs, c.RFReadPorts, c.RFWritePorts, c.RegReadCycles))
	t.AddRowf("issue composition", fmt.Sprintf("%d int, %d FP, %d load, %d store", c.IntALUs, c.FPUnits, c.LoadPorts, c.StorePorts))
	t.AddRowf("branch predictor", "12Kb hybrid (2K bimodal + 2K gshare + 2K chooser), 2K-entry 4-way BTB, 32-entry RAS")
	t.AddRowf("L1 I-cache", "32KB 2-way 32B 1-cycle")
	t.AddRowf("L1 D-cache", "32KB 2-way 32B 2-cycle")
	t.AddRowf("L2", "2MB 4-way 128B 10-cycle")
	t.AddRowf("memory", "100 cycles + 16B bus at 1/4 frequency")
	t.AddRowf("load scheduling", "store sets (4K SSIT / 512 LFST)")
	t.AddRowf("mini-graph machine", "2 ALUs replaced by 2 4-stage ALU pipelines; sliding-window scheduler, 1 int-mem handle/cycle")
	return t
}
