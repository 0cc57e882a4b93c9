package uarch

import (
	"fmt"

	"minigraph/internal/core"
	"minigraph/internal/uarch/sched"
)

// UnissuableError names a mini-graph the machine can never issue. Such a
// handle would sit at the head of the ROB forever, so the pipeline would
// spin until its context expired; CheckIssuable refuses the pairing before
// any trace is captured or cycle simulated.
type UnissuableError struct {
	MGID     int    // the template's MGT index
	Template string // the template's text (core.Template.String)
	Reason   string
}

func (e *UnissuableError) Error() string {
	return fmt.Sprintf("uarch: mini-graph %d (%s) can never issue: %s", e.MGID, e.Template, e.Reason)
}

// CheckIssuable reports the first template of mgt that c can never issue,
// as an *UnissuableError; nil means every handle can issue on an idle
// machine. The rules are acquireFU's own. An integer mini-graph flows down
// one ALU pipeline, so it needs an AP and an output latency within the
// pipeline's depth. An integer-memory mini-graph is issued by the sliding
// window, so the window must be enabled and the graph's FU0 and FUBMP
// reservations must fit it empty.
func (c *Config) CheckIssuable(mgt *core.MGT) error {
	var empty *sched.Window // built on the first integer-memory template
	for id := 0; id < mgt.Len(); id++ {
		ei := mgt.Info(id)
		reason := ""
		switch {
		case ei.Integer && c.APs <= 0:
			reason = "an integer mini-graph needs an ALU pipeline and the machine has none"
		case ei.Integer && max(ei.Lat, 1) > c.APDepth:
			reason = fmt.Sprintf("output latency %d exceeds the %d-stage ALU pipeline", max(ei.Lat, 1), c.APDepth)
		case ei.Integer:
		case c.IntMemIssuePerCycle <= 0:
			reason = "integer-memory mini-graphs cannot issue with the sliding-window scheduler off"
		default:
			if empty == nil {
				empty = c.window()
			}
			if !empty.CheckFUBmp(0, ei) {
				reason = fmt.Sprintf("its reservations (latency %d, FU0 %s, FUBMP %v) do not fit an empty %d-cycle window with %d ALUs, %d APs, %d load and %d store ports",
					ei.TotalLat, ei.FU0, ei.FUBmp, c.WindowHorizon, c.IntALUs, c.APs, c.LoadPorts, c.StorePorts)
			}
		}
		if reason != "" {
			return &UnissuableError{MGID: id, Template: mgt.Template(id).String(), Reason: reason}
		}
	}
	return nil
}

// window builds the machine's empty sliding-window reservation table.
func (c *Config) window() *sched.Window {
	return sched.NewWindow(c.WindowHorizon, sched.Capacities{
		sched.ResALU:    c.IntALUs,
		sched.ResAP:     c.APs,
		sched.ResLoad:   c.LoadPorts,
		sched.ResStore:  c.StorePorts,
		sched.ResFP:     c.FPUnits,
		sched.ResWrPort: c.RFWritePorts,
	})
}
