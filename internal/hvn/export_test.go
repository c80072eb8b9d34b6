package hvn

import "antgrass/internal/bitmap"

// CollideHashes makes every hash-consed label set and every interned
// evaluated set hash alike, so each lookup walks one bucket and decides by
// full comparison, and counts the hash calls in *calls. The returned
// function restores the hash functions.
func CollideHashes(calls *int) (restore func()) {
	oldLabels, oldSets := labelSetHash, setHash
	labelSetHash = func([]int32) uint64 { *calls++; return 42 }
	setHash = func(*bitmap.Bitmap) uint64 { *calls++; return 7 }
	return func() { labelSetHash, setHash = oldLabels, oldSets }
}
