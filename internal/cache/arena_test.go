package cache

import (
	"reflect"
	"runtime"
	"sync"
	"testing"

	"cxlmem/internal/sim"
)

// freeArenas reports how many arenas of n words the free list holds.
func freeArenas(n int) int {
	arenaPool.Lock()
	defer arenaPool.Unlock()
	return len(arenaPool.free[n])
}

// drainArenas empties the free list for arenas of n words, so a test
// controls exactly which arena the next take returns.
func drainArenas(n int) {
	arenaPool.Lock()
	defer arenaPool.Unlock()
	delete(arenaPool.free, n)
}

// dirtyReleased streams traffic unlike streamSeed's — from the last core,
// whose private caches streamSeed leaves empty — into a hierarchy of cfg and
// releases it, leaving exactly one dirty arena on the (drained) free list;
// it returns the arena's first word's address.
func dirtyReleased(t *testing.T, cfg HierConfig) *uint64 {
	t.Helper()
	h := NewHierarchy(cfg)
	drainArenas(h.arenaWords())
	rng := sim.NewRng(97)
	addrs := make([]uint64, 30000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<15)) * LineBytes
	}
	var c LevelCounts
	h.ReadStreamSharded(cfg.Cores-1, addrs, Home{Kind: HomeRemote, Node: 3}, &c, 2)
	first := &h.arena[0]
	h.Release()
	if n := freeArenas(h.arenaWords()); n != 1 {
		t.Fatalf("free list holds %d arenas after one release, want 1", n)
	}
	return first
}

// requireSnapshotsEqual fails the test unless two captures are identical.
func requireSnapshotsEqual(t *testing.T, want, got *Snapshot) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatal("captures of the recycled and the fresh hierarchy differ")
	}
}

// TestArenaRecycledMaterialize pins that a hierarchy materialized into a
// recycled, dirty arena is indistinguishable from one built fresh: the same
// empty capture, the same sharded stream counts, the same warmed capture.
func TestArenaRecycledMaterialize(t *testing.T) {
	cfg := shrunkConfig(4)
	fresh := NewHierarchy(cfg)
	drainArenas(fresh.arenaWords())
	freshEmpty, _ := fresh.Capture()

	first := dirtyReleased(t, cfg)
	recycled := NewHierarchy(cfg)
	recycledEmpty, _ := recycled.Capture()
	if &recycled.arena[0] != first {
		t.Fatal("materialize did not take the released arena")
	}
	requireSnapshotsEqual(t, freshEmpty, recycledEmpty)

	rng := sim.NewRng(5)
	addrs := make([]uint64, 20000)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1<<14)) * LineBytes
	}
	for _, home := range []Home{{Kind: HomeRemote, Node: 1}, {Kind: HomeLocalDDR, Node: 3}} {
		var want, got LevelCounts
		fresh.ReadStreamSharded(1, addrs, home, &want, 2)
		recycled.ReadStreamSharded(1, addrs, home, &got, 2)
		if want != got {
			t.Fatalf("home %+v: recycled counts %v, want %v", home, got, want)
		}
	}
	freshWarm, _ := fresh.Capture()
	recycledWarm, _ := recycled.Capture()
	requireSnapshotsEqual(t, freshWarm, recycledWarm)
}

// TestArenaRecycledRestore pins that a Restore into a recycled, dirty arena
// equals a Restore into a fresh one, word for word and counter for counter.
func TestArenaRecycledRestore(t *testing.T) {
	cfg := shrunkConfig(4)
	ref := NewHierarchy(cfg)
	streamSeed(ref)
	snap, _ := ref.Capture()

	fresh := NewHierarchy(cfg)
	drainArenas(fresh.arenaWords())
	if !fresh.Restore(snap) {
		t.Fatal("restore into fresh hierarchy failed")
	}
	first := dirtyReleased(t, cfg)
	recycled := NewHierarchy(cfg)
	if !recycled.Restore(snap) {
		t.Fatal("restore into recycled arena failed")
	}
	if &recycled.arena[0] != first {
		t.Fatal("restore did not take the released arena")
	}
	requireHierEqual(t, fresh, recycled)
	requireHierEqual(t, ref, recycled)
}

// TestArenaRefusedRestore pins that a configuration-mismatched Restore
// refuses before taking an arena: the hierarchy stays pristine and the free
// list keeps its arena.
func TestArenaRefusedRestore(t *testing.T) {
	ref := NewHierarchy(shrunkConfig(4))
	streamSeed(ref)
	snap, _ := ref.Capture()

	other := NewHierarchy(shrunkConfig(1)) // same arena length, other config
	if other.arenaWords() != snap.words {
		t.Fatal("test needs a mismatched config with the snapshot's arena length")
	}
	dirtyReleased(t, shrunkConfig(1))
	if other.Restore(snap) {
		t.Fatal("restore accepted a mismatched configuration")
	}
	if !other.Pristine() {
		t.Error("refused restore left the hierarchy non-pristine")
	}
	if n := freeArenas(other.arenaWords()); n != 1 {
		t.Errorf("refused restore took an arena: free list holds %d, want 1", n)
	}
}

// TestArenaReleaseIdempotent pins that Release restores NewHierarchy's
// exact state and that releasing twice — or releasing a pristine
// hierarchy — hands nothing more to the free list.
func TestArenaReleaseIdempotent(t *testing.T) {
	cfg := shrunkConfig(4)
	h := NewHierarchy(cfg)
	n := h.arenaWords()
	drainArenas(n)
	want := NewHierarchy(cfg)
	want.materializeAll() // a fresh arena, taken before any is released
	h.Release()
	if got := freeArenas(n); got != 0 {
		t.Fatalf("releasing a pristine hierarchy freed %d arenas", got)
	}
	streamSeed(h)
	h.Release()
	h.Release()
	if got := freeArenas(n); got != 1 {
		t.Fatalf("free list holds %d arenas after a double release, want 1", got)
	}
	if !reflect.DeepEqual(h, NewHierarchy(cfg)) {
		t.Error("released hierarchy differs from a new one")
	}
	streamSeed(want)
	streamSeed(h) // reuse after Release: a clean materialize of its own arena
	if freeArenas(n) != 0 {
		t.Error("reuse after Release did not take the released arena")
	}
	requireHierEqual(t, want, h)
}

// TestArenaPoolBound pins the free list's bound: however many hierarchies
// release arenas of one length, at most GOMAXPROCS stay pooled.
func TestArenaPoolBound(t *testing.T) {
	cfg := shrunkConfig(4)
	limit := runtime.GOMAXPROCS(0)
	hs := make([]*Hierarchy, limit+3)
	for i := range hs {
		hs[i] = NewHierarchy(cfg)
		hs[i].materializeAll()
	}
	n := hs[0].arenaWords()
	drainArenas(n)
	for _, h := range hs {
		h.Release()
		if got := freeArenas(n); got > limit {
			t.Fatalf("free list holds %d arenas, bound is %d", got, limit)
		}
	}
	if got := freeArenas(n); got != limit {
		t.Errorf("free list holds %d arenas, want %d", got, limit)
	}
}

// TestArenaConcurrentRecycling runs sweep-point-shaped lifecycles — build,
// warm, capture, release — on several goroutines at once, so arenas move
// between hierarchies mid-run; every capture must equal the serial one.
// Under -race this is the pool's data-race check.
func TestArenaConcurrentRecycling(t *testing.T) {
	cfg := shrunkConfig(4)
	ref := NewHierarchy(cfg)
	streamSeed(ref)
	want, _ := ref.Capture()
	ref.Release()

	const goroutines, rounds = 4, 6
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				h := NewHierarchy(cfg)
				if r%2 == 1 && !h.Restore(want) {
					errs <- "restore failed"
				} else if r%2 == 0 {
					streamSeed(h)
				}
				if got, _ := h.Capture(); !reflect.DeepEqual(want, got) {
					errs <- "capture diverged from the serial reference"
				}
				h.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
