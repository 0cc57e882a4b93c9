package uarch_test

import (
	"errors"
	"strings"
	"testing"

	"minigraph/internal/core"
	"minigraph/internal/isa"
	"minigraph/internal/uarch"
)

// addChain is an n-op serial integer mini-graph: without collapsing its
// output latency is n.
func addChain(n int) *core.Template {
	t := &core.Template{NumIn: 1, OutIdx: n - 1, MemIdx: -1, BranchIdx: -1}
	for i := 0; i < n; i++ {
		a := core.Operand{Kind: core.OpndExt, Idx: 0}
		if i > 0 {
			a = core.Operand{Kind: core.OpndInt, Idx: i - 1}
		}
		t.Insns = append(t.Insns, core.TemplateInsn{Op: isa.OpAddl, A: a, B: core.Operand{Kind: core.OpndImm}, Imm: 1})
	}
	return t
}

// loadShift is an integer-memory mini-graph: ldq then srl of the value.
func loadShift() *core.Template {
	return &core.Template{
		Insns: []core.TemplateInsn{
			{Op: isa.OpLdq, B: core.Operand{Kind: core.OpndExt, Idx: 0}, Imm: 16},
			{Op: isa.OpSrl, A: core.Operand{Kind: core.OpndInt, Idx: 0}, B: core.Operand{Kind: core.OpndImm}, Imm: 14},
		},
		NumIn: 1, OutIdx: 1, MemIdx: 0, BranchIdx: -1,
	}
}

// TestCheckIssuable walks the ways a machine can fail to issue a
// mini-graph, each against the template that trips it, and the machines
// that issue the same templates.
func TestCheckIssuable(t *testing.T) {
	for _, tm := range []*core.Template{addChain(5), loadShift()} {
		if err := tm.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name   string
		mutate func(*uarch.Config)
		tmpl   *core.Template
		reason string // "" = issuable
	}{
		{"4-op chain on 4-stage APs", nil, addChain(4), ""},
		{"integer-memory graph", nil, loadShift(), ""},
		{"5-op chain on 4-stage APs", nil, addChain(5), "exceeds the 4-stage ALU pipeline"},
		{"5-op chain collapsed", func(c *uarch.Config) { c.Collapse = true }, addChain(5), ""},
		{"8-op chain on 8-stage APs", func(c *uarch.Config) { c.APDepth = 8 }, addChain(8), ""},
		{"4-op chain on 3-stage APs", func(c *uarch.Config) { c.APDepth = 3 }, addChain(4), "exceeds the 3-stage"},
		{"no APs", func(c *uarch.Config) { c.IntALUs, c.APs = 4, 0 }, addChain(2), "has none"},
		{"window off", func(c *uarch.Config) { c.IntMemIssuePerCycle = 0 }, loadShift(), "sliding-window scheduler off"},
		{"no load port", func(c *uarch.Config) { c.LoadPorts = 0 }, loadShift(), "do not fit an empty 32-cycle window"},
		{"window shorter than the graph", func(c *uarch.Config) { c.WindowHorizon = 2 }, loadShift(), "do not fit an empty 2-cycle window"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := uarch.MiniGraph(true)
			if tc.mutate != nil {
				tc.mutate(&cfg)
			}
			params := core.ExecParams{LoadLat: cfg.LoadLat, Collapse: cfg.Collapse, UseAP: cfg.APs > 0}
			// The tested template sits behind one that every case's machine
			// issues, so the error must name the right MGT index.
			lead := addChain(2)
			if cfg.APs == 0 {
				lead = loadShift()
			}
			mgt := core.NewMGT([]*core.Template{lead, tc.tmpl}, params)
			err := cfg.CheckIssuable(mgt)
			if tc.reason == "" {
				if err != nil {
					t.Fatalf("refused: %v", err)
				}
				return
			}
			var ue *uarch.UnissuableError
			if !errors.As(err, &ue) {
				t.Fatalf("err = %v, want *UnissuableError", err)
			}
			if ue.MGID != 1 || ue.Template != tc.tmpl.String() || !strings.Contains(ue.Reason, tc.reason) {
				t.Errorf("got mgid %d template %q reason %q; want mgid 1, %q, a reason containing %q", ue.MGID, ue.Template, ue.Reason, tc.tmpl.String(), tc.reason)
			}
		})
	}
}
