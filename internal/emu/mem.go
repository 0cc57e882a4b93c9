// Package emu implements the functional (architectural) emulator for the
// mini-graph ISA. It serves three roles:
//
//  1. Profiler: executes a program and collects the basic-block / static
//     instruction frequency profile that drives mini-graph selection.
//  2. Oracle: generates the dynamic instruction stream (with resolved
//     effective addresses and branch outcomes) consumed by the cycle-level
//     timing model in internal/uarch.
//  3. Reference: architectural-equivalence tests compare rewritten
//     (handle-bearing) programs against the original binaries.
//
// The emulator executes mini-graph handles atomically by interpreting their
// MGT templates, exactly as a mini-graph processor's MGST sequencers would.
package emu

import (
	"encoding/binary"
	"fmt"

	"minigraph/internal/isa"
)

const (
	pageShift = 12
	pageSize  = 1 << pageShift
	pageMask  = pageSize - 1
)

// Memory is a sparse little-endian byte-addressable memory.
// The zero value is an empty memory ready for use.
type Memory struct {
	pages map[uint64]*[pageSize]byte
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageSize]byte)}
}

func (m *Memory) page(a isa.Addr, create bool) *[pageSize]byte {
	pn := uint64(a) >> pageShift
	p := m.pages[pn]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	return p
}

// LoadByte returns the byte at a (0 for untouched memory).
func (m *Memory) LoadByte(a isa.Addr) byte {
	p := m.page(a, false)
	if p == nil {
		return 0
	}
	return p[uint64(a)&pageMask]
}

// StoreByte stores b at a.
func (m *Memory) StoreByte(a isa.Addr, b byte) {
	m.page(a, true)[uint64(a)&pageMask] = b
}

// Read returns size bytes at a as a zero-extended little-endian value.
// size must be 1, 2, 4, or 8.
func (m *Memory) Read(a isa.Addr, size int) uint64 {
	off := uint64(a) & pageMask
	if p := m.page(a, false); p != nil && off+uint64(size) <= pageSize {
		switch size {
		case 1:
			return uint64(p[off])
		case 2:
			return uint64(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[off:]))
		case 8:
			return binary.LittleEndian.Uint64(p[off:])
		}
	}
	// Slow path: page-crossing or unmapped.
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.LoadByte(a+isa.Addr(i))) << (8 * i)
	}
	return v
}

// Write stores the low size bytes of v at a, little-endian.
func (m *Memory) Write(a isa.Addr, size int, v uint64) {
	off := uint64(a) & pageMask
	if off+uint64(size) <= pageSize {
		p := m.page(a, true)
		switch size {
		case 1:
			p[off] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
		case 4:
			binary.LittleEndian.PutUint32(p[off:], uint32(v))
		case 8:
			binary.LittleEndian.PutUint64(p[off:], v)
		}
		return
	}
	for i := 0; i < size; i++ {
		m.StoreByte(a+isa.Addr(i), byte(v>>(8*i)))
	}
}

// LoadImage copies a program's initial data image into memory.
func (m *Memory) LoadImage(data map[isa.Addr][]byte) {
	for base, bytes := range data {
		for i, b := range bytes {
			if b != 0 {
				m.StoreByte(base+isa.Addr(i), b)
			}
		}
	}
}

// Checksum computes a FNV-1a hash over all mapped pages, for equivalence
// tests between original and rewritten binaries.
func (m *Memory) Checksum() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	// Hash pages in deterministic page-number order.
	var pns []uint64
	for pn := range m.pages {
		pns = append(pns, pn)
	}
	sortUint64(pns)
	h := uint64(offset)
	for _, pn := range pns {
		p := m.pages[pn]
		allZero := true
		for _, b := range p {
			if b != 0 {
				allZero = false
				break
			}
		}
		if allZero {
			continue // pages that were mapped but never written differ benignly
		}
		h ^= pn
		h *= prime
		for _, b := range p {
			h ^= uint64(b)
			h *= prime
		}
	}
	return h
}

func sortUint64(s []uint64) {
	// Insertion sort: page lists are short and this avoids importing sort
	// into the hot emulator package for one cold call.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// FaultError reports an emulated memory access outside the supported
// address range (e.g. a wild store from a buggy kernel).
type FaultError struct {
	PC   isa.PC
	Addr isa.Addr
	What string
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("emu: %s fault at pc=%d addr=%#x", e.What, e.PC, uint64(e.Addr))
}
