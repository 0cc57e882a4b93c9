package core

import (
	"fmt"
	"strings"
)

// MGT is the mini-graph table: the on-chip structure mapping handle MGIDs to
// mini-graph definitions (§4.1). Logically it is the template list; the
// physical split into the header table (MGHT, read at rename/schedule) and
// the cycle-banked sequencing table (MGST, read during execution) is
// realised by the cached ExecInfo schedules.
type MGT struct {
	templates []*Template
	params    ExecParams
	info      []*ExecInfo // lazily computed MGHT/MGST schedule per entry
}

// NewMGT builds a table from the templates (index = MGID) under the given
// machine parameters.
func NewMGT(templates []*Template, params ExecParams) *MGT {
	return &MGT{
		templates: templates,
		params:    params,
		info:      make([]*ExecInfo, len(templates)),
	}
}

// Len returns the number of table entries.
func (m *MGT) Len() int { return len(m.templates) }

// Template returns the definition at mgid, or nil if out of range — the
// hardware analogue of an MGTT tag miss.
func (m *MGT) Template(mgid int) *Template {
	if mgid < 0 || mgid >= len(m.templates) {
		return nil
	}
	return m.templates[mgid]
}

// Info returns the MGHT/MGST scheduling metadata for mgid (cached).
func (m *MGT) Info(mgid int) *ExecInfo {
	if mgid < 0 || mgid >= len(m.templates) {
		return nil
	}
	if m.info[mgid] == nil {
		m.info[mgid] = m.templates[mgid].Schedule(m.params)
	}
	return m.info[mgid]
}

// Dump renders the physical MGT organisation in the style of the paper's
// Figure 2: one MGHT row (LAT, FU0, FUBMP) and the MGST bank contents per
// entry. Intended for debugging and documentation examples.
func (m *MGT) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "MGHT %29s | MGST\n", "")
	for id, t := range m.templates {
		ei := m.Info(id)
		var bmp []string
		for _, fu := range ei.FUBmp {
			bmp = append(bmp, fu.String())
		}
		fmt.Fprintf(&b, "%4d LAT=%d FU0=%-4s FUBMP=%-12s |", id, ei.Lat, ei.FU0, strings.Join(bmp, ":"))
		for i, ti := range t.Insns {
			fmt.Fprintf(&b, " [%d] %s", ei.Offset[i], ti.String())
		}
		fmt.Fprintf(&b, "  (out=%d)\n", t.OutIdx)
	}
	return b.String()
}
