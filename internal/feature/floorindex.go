package feature

import (
	"math"
	"math/bits"
)

// floorIndex is a rank index of one spectrum: it answers "the k-th
// smallest bin over [a, b) ∪ [c, d)" in O(log n), where a selection
// costs O(b-a+d-c). The rotor scan asks ~510 such floor medians of one
// radial spectrum over heavily overlapping windows, so building the
// index once and querying it beats re-selecting every window.
//
// The bins are ranked in the order sort.Float64s leaves them (NaNs
// first), ties broken by position, so rank r names exactly one bin and
// sorted[r] is the element a sort of the window would hold at its rank.
// A wavelet matrix over the ranks then descends one bit of the answer
// per level: each level splits its sequence by that bit of the rank,
// zero-bit positions stably moved first for the next level, and a
// window maps to its zero and one halves through the count of one bits
// before each end. The counts are stored outright, one per position,
// so a query reads them instead of counting bits.
type floorIndex struct {
	n, levels int
	// ones holds, per level, the count of one bits before each
	// position 0..n: levels × (n+1) entries.
	ones   []uint32
	zeros  []int // zero bits per level
	sorted []float64
	// Build scratch: the radix sort's two buffers and histograms, the
	// ranks by position, and the partition's two sides.
	keyed, keyed2   []keyedBin
	count           [8][256]uint32
	rank, rank2, up []uint32
}

// keyedBin is one bin in the radix sort: its order key and position.
type keyedBin struct {
	key uint64
	pos uint32
}

// orderKey maps a float64 to a uint64 ordered as sort.Float64s orders
// the floats: every NaN is 0, below -Inf's key; -0 sorts just below +0,
// which the sort treats as equal, so either is a correct pick.
func orderKey(x float64) uint64 {
	if x != x {
		return 0
	}
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}

// build indexes psd, which must hold a bin, reusing the index's buffers.
func (ix *floorIndex) build(psd []float64) {
	n := len(psd)
	ix.n = n
	ix.levels = bits.Len(uint(max(n-1, 0)))
	ix.keyed, ix.keyed2 = resize(ix.keyed, n), resize(ix.keyed2, n)
	ix.rank, ix.rank2 = resize(ix.rank, n), resize(ix.rank2, n)
	ix.sorted = resize(ix.sorted, n)

	// Stable LSD radix sort of the positions by key, one byte a pass; a
	// byte every key shares (all eight on a dead sensor's flat spectrum)
	// costs no pass. The eight histograms fill in one sweep.
	c := &ix.count
	*c = [8][256]uint32{}
	src, dst := ix.keyed, ix.keyed2
	for i, x := range psd {
		k := orderKey(x)
		src[i] = keyedBin{k, uint32(i)}
		c[0][byte(k)]++
		c[1][byte(k>>8)]++
		c[2][byte(k>>16)]++
		c[3][byte(k>>24)]++
		c[4][byte(k>>32)]++
		c[5][byte(k>>40)]++
		c[6][byte(k>>48)]++
		c[7][byte(k>>56)]++
	}
	for d := range c {
		shift := 8 * uint(d)
		digit := &c[d]
		if int(digit[byte(src[0].key>>shift)]) == n {
			continue
		}
		var sum uint32
		for b, m := range digit {
			digit[b], sum = sum, sum+m
		}
		for _, e := range src {
			b := byte(e.key >> shift)
			dst[digit[b]] = e
			digit[b]++
		}
		src, dst = dst, src
	}
	for r, e := range src {
		ix.sorted[r] = psd[e.pos]
		ix.rank[e.pos] = uint32(r)
	}

	// Wavelet matrix, most significant rank bit first. One pass per
	// level counts the ones and stably partitions the ranks, zeros to
	// the front of next and ones to up, without a branch on the bit:
	// each rank is stored to both sides and only its side's cursor
	// moves on, so the other store is overwritten later.
	ix.ones = resize(ix.ones, ix.levels*(n+1))
	ix.zeros = resize(ix.zeros, ix.levels)
	ix.up = resize(ix.up, n)
	cur, next, up := ix.rank, ix.rank2, ix.up
	for l := 0; l < ix.levels; l++ {
		shift := uint(ix.levels - 1 - l)
		ones := ix.ones[l*(n+1) : (l+1)*(n+1)]
		p0, p1 := 0, 0
		for i, v := range cur {
			bit := int(v>>shift) & 1
			ones[i] = uint32(p1)
			next[p0], up[p1] = v, v
			p0 += 1 - bit
			p1 += bit
		}
		ones[n] = uint32(p1)
		ix.zeros[l] = p0
		copy(next[p0:], up[:p1])
		cur, next = next, cur
	}
}

// kth returns the k-th smallest (0-based) bin over [a, b) ∪ [c, d),
// two disjoint ranges holding more than k bins between them: the
// element sort.Float64s leaves at index k of their concatenation.
func (ix *floorIndex) kth(a, b, c, d, k int) float64 {
	r := 0
	stride := ix.n + 1
	for l := 0; l < ix.levels; l++ {
		ones := ix.ones[l*stride : (l+1)*stride]
		oa, ob, oc, od := int(ones[a]), int(ones[b]), int(ones[c]), int(ones[d])
		za, zb, zc, zd := a-oa, b-ob, c-oc, d-od
		zeros := zb - za + zd - zc
		// Descend to the one half when k lies past the zeros. The choice
		// is a coin flip on noise, so it is a mask, not a branch.
		one := 0
		if k >= zeros {
			one = 1
		}
		m := -one
		k -= zeros & m
		r = r<<1 | one
		z := ix.zeros[l]
		a = za + (z+oa-za)&m
		b = zb + (z+ob-zb)&m
		c = zc + (z+oc-zc)&m
		d = zd + (z+od-zd)&m
	}
	return ix.sorted[r]
}

// bandStat is the package's bandStat with the floor median read from
// the index instead of selected; the index must hold psd.
func (ix *floorIndex) bandStat(psd []float64, f0, binHz, tolFrac float64) (snr float64) {
	flo, lo, hi, fhi, ok := bandFloor(len(psd), f0, binHz, tolFrac)
	if !ok {
		return 0
	}
	m := lo - flo + fhi - hi
	if m == 0 {
		return 0
	}
	return bandSNR(psd, lo, hi, ix.kth(flo, lo, hi+1, fhi+1, m/2))
}
