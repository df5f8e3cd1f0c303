//go:build linux

package cache

import (
	"syscall"
	"unsafe"
)

// adviseHugePages asks Linux to back the slab arena with transparent
// huge pages. The simulation's random set probes touch megabytes of tag
// slab; on 4 KB pages every probe costs a dTLB miss and a page walk that the
// CPU cannot overlap, which — not the cache misses — dominates the streamed
// measurement loops. With 2 MB pages the whole arena needs a handful of TLB
// entries. Purely a hint: failure (or a host with THP disabled) is
// ignored and only costs speed.
func adviseHugePages(words []uint64) {
	if len(words) == 0 {
		return
	}
	b := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	// Madvise requires page alignment; trim to the 4 KB-aligned interior.
	const page = 4096
	start := uintptr(unsafe.Pointer(&b[0]))
	off := 0
	if r := start % page; r != 0 {
		off = int(page - r)
	}
	if off >= len(b) {
		return
	}
	n := (len(b) - off) &^ (page - 1)
	if n == 0 {
		return
	}
	_ = syscall.Madvise(b[off:off+n], syscall.MADV_HUGEPAGE)
}
