// Package cache models the simulated memory hierarchy: set-associative
// write-back caches with LRU replacement, and a main-memory bus with
// occupancy-based contention. The default configuration matches §6 of the
// paper: 32KB 2-way 32B-line L1s (1-cycle I, 2-cycle D), a 2MB 4-way
// 128B-line 10-cycle L2, and 100-cycle memory behind a 16-byte bus running
// at one quarter of the core frequency.
package cache

import "minigraph/internal/isa"

// Config sizes one cache level.
type Config struct {
	Size     int // bytes
	Assoc    int
	LineSize int // bytes
	Latency  int // access latency in cycles
}

// L1IConfig, L1DConfig and L2Config are the paper's hierarchy.
func L1IConfig() Config { return Config{Size: 32 << 10, Assoc: 2, LineSize: 32, Latency: 1} }

// L1DConfig is the 2-cycle data cache.
func L1DConfig() Config { return Config{Size: 32 << 10, Assoc: 2, LineSize: 32, Latency: 2} }

// L2Config is the shared 2MB L2.
func L2Config() Config { return Config{Size: 2 << 20, Assoc: 4, LineSize: 128, Latency: 10} }

// Bus models the memory bus: a 16-byte-wide channel at one quarter core
// frequency. An L2 line fill occupies it for LineSize/Width transfers of
// Ratio cycles each; requests queue behind the current occupant.
type Bus struct {
	Width    int // bytes per transfer
	Ratio    int // core cycles per bus cycle
	MemLat   int // DRAM access latency (core cycles)
	freeAt   int64
	Requests int64
	Stalls   int64 // cycles spent waiting for the bus
}

// NewBus returns the paper's memory interface.
func NewBus() *Bus { return &Bus{Width: 16, Ratio: 4, MemLat: 100} }

// Access returns the cycle at which a line of size bytes requested at
// cycle now is fully delivered.
func (b *Bus) Access(now int64, size int) int64 {
	b.Requests++
	start := now
	if b.freeAt > start {
		b.Stalls += b.freeAt - start
		start = b.freeAt
	}
	transfers := (size + b.Width - 1) / b.Width
	done := start + int64(b.MemLat) + int64(transfers*b.Ratio)
	b.freeAt = done
	return done
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// pf marks a line installed by a prefetch that no demand access has
	// touched yet; pfReady is the cycle its fill completes. The first
	// demand hit consumes the flag (useful/late accounting) and, if the
	// fill is still in flight, waits for it.
	pf      bool
	pfReady int64
	lru     uint32
}

// Cache is one level of the hierarchy. Misses recurse into the next level
// (or the bus at the last level). The model is latency/occupancy based:
// each access returns the cycle at which its data is available. Lines live
// in one flat set-major slab so an access touches a single contiguous run
// of Assoc entries.
type Cache struct {
	cfg      Config
	lines    []line // nsets × Assoc, set-major
	setShift uint
	setMask  uint64
	next     *Cache
	bus      *Bus
	lruClock uint32

	// Stats.
	Accesses   int64
	Misses     int64
	Writebacks int64

	// Prefetch stats (all zero unless Prefetch is called). PrefIssued
	// counts fills actually started (probes that hit are dropped);
	// PrefUseful counts prefetched lines a demand access touched before
	// eviction; PrefLate counts the useful subset whose fill was still in
	// flight at first touch.
	PrefIssued int64
	PrefUseful int64
	PrefLate   int64
}

// New builds a cache backed by next (or by bus if next is nil).
func New(cfg Config, next *Cache, bus *Bus) *Cache {
	nsets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	c := &Cache{cfg: cfg, next: next, bus: bus}
	c.lines = make([]line, nsets*cfg.Assoc)
	for c.setShift = 0; 1<<c.setShift < cfg.LineSize; c.setShift++ {
	}
	c.setMask = uint64(nsets - 1)
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Access simulates a read (write=false) or write (write=true) of the line
// containing addr at cycle now. It returns the cycle at which the data is
// available and whether the access hit in this level.
func (c *Cache) Access(now int64, addr isa.Addr, write bool) (readyAt int64, hit bool) {
	c.Accesses++
	set := (uint64(addr) >> c.setShift) & c.setMask
	tag := uint64(addr) >> c.setShift / (c.setMask + 1)
	base := int(set) * c.cfg.Assoc
	ways := c.lines[base : base+c.cfg.Assoc]
	c.lruClock++
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			ways[w].lru = c.lruClock
			if write {
				ways[w].dirty = true
			}
			ready := now + int64(c.cfg.Latency)
			if ways[w].pf {
				// First demand touch of a prefetched line: useful, and late
				// if the fill has not landed yet (the access waits for it).
				ways[w].pf = false
				c.PrefUseful++
				if ways[w].pfReady > ready {
					c.PrefLate++
					ready = ways[w].pfReady
				}
			}
			return ready, true
		}
	}
	// Miss: fill from below.
	c.Misses++
	fillReady := now + int64(c.cfg.Latency)
	if c.next != nil {
		r, _ := c.next.Access(fillReady, addr, false)
		fillReady = r
	} else if c.bus != nil {
		fillReady = c.bus.Access(fillReady, c.cfg.LineSize)
	}
	// Victim selection.
	victim := 0
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
		if ways[w].lru < ways[victim].lru {
			victim = w
		}
	}
	if ways[victim].valid && ways[victim].dirty {
		c.Writebacks++
		if c.next != nil {
			c.next.Access(fillReady, c.reconstruct(set, ways[victim].tag), true)
		} else if c.bus != nil {
			c.bus.Access(fillReady, c.cfg.LineSize)
		}
	}
	ways[victim] = line{tag: tag, valid: true, dirty: write, lru: c.lruClock}
	return fillReady, false
}

// Prefetch installs the line containing addr at cycle now, filling from
// the next level (or the bus) exactly like a demand miss — prefetch
// traffic queues on the same bus and evicts real victims, so it competes
// for bandwidth rather than arriving for free. A probe that hits (the line
// is already present, demand- or prefetch-installed) is dropped without
// side effects. Returns whether a fill was started.
func (c *Cache) Prefetch(now int64, addr isa.Addr) bool {
	set := (uint64(addr) >> c.setShift) & c.setMask
	tag := uint64(addr) >> c.setShift / (c.setMask + 1)
	base := int(set) * c.cfg.Assoc
	ways := c.lines[base : base+c.cfg.Assoc]
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			return false
		}
	}
	c.PrefIssued++
	fillReady := now + int64(c.cfg.Latency)
	if c.next != nil {
		r, _ := c.next.Access(fillReady, addr, false)
		fillReady = r
	} else if c.bus != nil {
		fillReady = c.bus.Access(fillReady, c.cfg.LineSize)
	}
	c.lruClock++
	victim := 0
	for w := range ways {
		if !ways[w].valid {
			victim = w
			break
		}
		if ways[w].lru < ways[victim].lru {
			victim = w
		}
	}
	if ways[victim].valid && ways[victim].dirty {
		c.Writebacks++
		if c.next != nil {
			c.next.Access(fillReady, c.reconstruct(set, ways[victim].tag), true)
		} else if c.bus != nil {
			c.bus.Access(fillReady, c.cfg.LineSize)
		}
	}
	ways[victim] = line{tag: tag, valid: true, pf: true, pfReady: fillReady, lru: c.lruClock}
	return true
}

func (c *Cache) reconstruct(set uint64, tag uint64) isa.Addr {
	return isa.Addr((tag*(c.setMask+1) + set) << c.setShift)
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}
