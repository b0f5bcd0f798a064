package coherence

import (
	"math/rand"
	"slices"
	"testing"

	"destset/internal/cache"
	"destset/internal/nodeset"
	"destset/internal/trace"
)

// tableTestAddrs is an address pool that straddles page boundaries, sits
// far above any dense table's reach (>= 2^40) and includes the ends of
// the 64-bit space. Blocks sharing a low-order set index collide in the
// tiny test caches, so the pool also drives evictions.
func tableTestAddrs() []trace.Addr {
	var as []trace.Addr
	for _, base := range []trace.Addr{0, 3 * pageBlocks, 1 << 40, 1<<40 + 7*pageBlocks, 1 << 58, ^trace.Addr(0) - 2*pageBlocks + 1} {
		for _, off := range []trace.Addr{0, 1, 8, pageBlocks - 1, pageBlocks, pageBlocks + 1, 2*pageBlocks - 1} {
			as = append(as, base+off)
		}
	}
	return append(as, ^trace.Addr(0))
}

// refState derives a block's directory state from the caches alone: the
// owner is the node holding an owner state, the sharers the nodes holding
// Shared.
func refState(s *System, a trace.Addr) (owner nodeset.NodeID, sharers nodeset.Set) {
	owner = MemoryOwner
	for n := 0; n < s.Nodes(); n++ {
		switch st := s.CacheOf(nodeset.NodeID(n)).Lookup(a); {
		case st.IsOwner():
			owner = nodeset.NodeID(n)
		case st == cache.Shared:
			sharers = sharers.Add(nodeset.NodeID(n))
		}
	}
	return owner, sharers
}

// TestPagedTableMatchesMapReference drives random accesses over
// tableTestAddrs and checks the paged block table against a
// map[trace.Addr]blockState reference after every step: owner and
// sharers as the caches imply them, touched sets and miss counts as the
// accesses imply them, for touched and untouched blocks alike. At the end
// ForEachTouchedBlock must list exactly the reference's blocks in
// ascending address order. Lookups of untouched blocks must not allocate.
func TestPagedTableMatchesMapReference(t *testing.T) {
	for _, exclusive := range []bool{false, true} {
		name := "MOSI"
		if exclusive {
			name = "MOESI"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Exclusive = exclusive
			s := NewSystem(cfg)
			addrs := tableTestAddrs()
			ref := map[trace.Addr]blockState{}
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < 4000; step++ {
				p := nodeset.NodeID(rng.Intn(cfg.Nodes))
				a := addrs[rng.Intn(len(addrs))]
				k := AccessKind(rng.Intn(2))
				want := ref[a]
				want.touched = want.touched.Add(p)
				// Apply replays known misses only, so it gets the accesses
				// that would miss: absent blocks and stores to read-only
				// copies.
				st := s.CacheOf(p).Lookup(a)
				wouldMiss := st == cache.Invalid || (k == Store && (st == cache.Shared || st == cache.Owned))
				var missed bool
				if wouldMiss && rng.Intn(2) == 0 {
					kind := trace.GetShared
					if k == Store {
						kind = trace.GetExclusive
					}
					s.Apply(trace.Record{Addr: a, Requester: uint8(p), Kind: kind})
					missed = true
				} else {
					_, missed = s.Access(p, a, k)
				}
				if missed {
					want.misses++
				}
				ref[a] = want

				pages := s.blocks.pages
				for _, x := range addrs {
					owner, sharers := refState(s, x)
					if got := s.OwnerOf(x); got != owner {
						t.Fatalf("step %d: OwnerOf(%#x) = %d, caches say %d", step, uint64(x), got, owner)
					}
					if got := s.SharersOf(x); got != sharers {
						t.Fatalf("step %d: SharersOf(%#x) = %v, caches say %v", step, uint64(x), got, sharers)
					}
					mi := s.Peek(trace.Record{Addr: x, Requester: uint8(p)})
					if mi.Owner != owner || mi.Sharers != sharers || mi.Home != s.Home(x) ||
						mi.RequesterState != s.CacheOf(p).Lookup(x) {
						t.Fatalf("step %d: Peek(%#x) = %+v", step, uint64(x), mi)
					}
					if b := s.blocks.at(x); b.touched != ref[x].touched || b.misses != ref[x].misses {
						t.Fatalf("step %d: block %#x stats %v/%d, want %v/%d",
							step, uint64(x), b.touched, b.misses, ref[x].touched, ref[x].misses)
					}
				}
				if s.blocks.pages != pages {
					t.Fatalf("step %d: lookups allocated %d pages", step, s.blocks.pages-pages)
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			var wantAddrs []trace.Addr
			for a := range ref {
				wantAddrs = append(wantAddrs, a)
			}
			slices.Sort(wantAddrs)
			var got []BlockStat
			s.ForEachTouchedBlock(func(b BlockStat) { got = append(got, b) })
			if len(got) != len(wantAddrs) {
				t.Fatalf("ForEachTouchedBlock visited %d blocks, want %d", len(got), len(wantAddrs))
			}
			for i, b := range got {
				w := ref[wantAddrs[i]]
				if b.Addr != wantAddrs[i] || b.Touched != w.touched || b.Misses != w.misses {
					t.Fatalf("block %d = %+v, want addr %#x touched %v misses %d",
						i, b, uint64(wantAddrs[i]), w.touched, w.misses)
				}
			}
		})
	}
}

// TestBlockTableGrowthKeepsPointers fills enough pages to grow the
// directory many times and checks that state written through a
// pointer taken before the growth is still there, and that at() agrees
// with a map reference everywhere.
func TestBlockTableGrowthKeepsPointers(t *testing.T) {
	var tab blockTable
	ref := map[trace.Addr]uint32{}
	rng := rand.New(rand.NewSource(3))
	first := tab.get(1 << 45)
	first.misses = 99
	ref[1<<45] = 99
	for i := 0; i < 600; i++ {
		// Half scattered, half consecutive pages, whose probe sequences
		// run into each other.
		a := trace.Addr(rng.Uint64())
		if i%2 == 1 {
			a = trace.Addr(i)*pageBlocks + trace.Addr(rng.Intn(pageBlocks))
		}
		b := tab.get(a)
		b.misses++
		ref[a]++
	}
	if first.misses != ref[1<<45] {
		t.Fatalf("pointer taken before growth reads %d, want %d", first.misses, ref[1<<45])
	}
	for a, m := range ref {
		if got := tab.at(a).misses; got != m {
			t.Fatalf("block %#x misses = %d, want %d", uint64(a), got, m)
		}
	}
	if got := tab.at(12345).misses; got != 0 {
		t.Fatalf("untouched block reads %d misses", got)
	}
	if 2*tab.pages > len(tab.slots) {
		t.Fatalf("directory over half full: %d pages in %d slots", tab.pages, len(tab.slots))
	}
}
