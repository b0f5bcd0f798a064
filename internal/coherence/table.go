package coherence

import (
	"math/bits"
	"slices"

	"destset/internal/trace"
)

// pageShift sizes the block table's pages: 512 blocks each. The paper
// workloads fill 30–91% of every page they touch, so few pages hold
// most of a run's state and the directory over them stays small.
const (
	pageShift  = 9
	pageBlocks = 1 << pageShift
)

// page holds the state of pageBlocks consecutive blocks.
type page [pageBlocks]blockState

// pageSlot is one directory entry; p == nil marks a free slot.
type pageSlot struct {
	key uint64 // page number: block address >> pageShift
	p   *page
}

// blockTable maps block addresses to their directory state. Pages are
// allocated zeroed on first touch and found through a linear-probe
// open-addressing directory keyed by page number, so memory follows the
// pages a run touches, not its highest address, and any 64-bit block
// address works. Pages never move: a *blockState stays valid while
// other blocks are added.
type blockTable struct {
	slots []pageSlot // power-of-two length, at most half full
	shift uint       // 64 - log2(len(slots)), for Fibonacci hashing
	pages int
}

// home returns the directory slot a page number's probe starts at.
func (t *blockTable) home(key uint64) int {
	return int((key * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the page holding key, or nil if it was never touched.
func (t *blockTable) find(key uint64) *page {
	if len(t.slots) == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		sl := &t.slots[i]
		if sl.p == nil || sl.key == key {
			return sl.p
		}
	}
}

// get returns block a's state, allocating its page on first touch.
func (t *blockTable) get(a trace.Addr) *blockState {
	key := uint64(a) >> pageShift
	p := t.find(key)
	if p == nil {
		p = new(page)
		if 2*(t.pages+1) > len(t.slots) {
			t.grow()
		}
		t.place(key, p)
		t.pages++
	}
	return &p[uint64(a)&(pageBlocks-1)]
}

// at returns block a's state without allocating: the zero state (owned
// by memory, no sharers, never touched) for a block of an untouched page.
func (t *blockTable) at(a trace.Addr) blockState {
	if p := t.find(uint64(a) >> pageShift); p != nil {
		return p[uint64(a)&(pageBlocks-1)]
	}
	return blockState{}
}

// place puts a page into the first free slot of its probe sequence.
func (t *blockTable) place(key uint64, p *page) {
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].p != nil {
		i = (i + 1) & mask
	}
	t.slots[i] = pageSlot{key: key, p: p}
}

// grow doubles the directory (starting at 16 slots) and rehashes it.
func (t *blockTable) grow() {
	old := t.slots
	n := 2 * len(old)
	if n == 0 {
		n = 16
	}
	t.slots = make([]pageSlot, n)
	t.shift = uint(64 - bits.Len(uint(n-1)))
	for _, sl := range old {
		if sl.p != nil {
			t.place(sl.key, sl.p)
		}
	}
}

// forEach visits every block of every touched page in ascending address
// order, untouched blocks of those pages included, and stops at the
// first error fn returns.
func (t *blockTable) forEach(fn func(a trace.Addr, b *blockState) error) error {
	keys := make([]uint64, 0, t.pages)
	for _, sl := range t.slots {
		if sl.p != nil {
			keys = append(keys, sl.key)
		}
	}
	slices.Sort(keys)
	for _, key := range keys {
		p := t.find(key)
		base := trace.Addr(key << pageShift)
		for i := range p {
			if err := fn(base+trace.Addr(i), &p[i]); err != nil {
				return err
			}
		}
	}
	return nil
}
