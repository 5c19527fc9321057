// Package huffman implements a canonical Huffman entropy coder over bytes,
// used by the Bzip2-class baseline (bzip2's final stage is Huffman coding)
// and available to experiments as a classical contrast to the rANS coder.
//
// Code lengths are computed with the standard two-queue algorithm over
// symbol frequencies and limited to MaxCodeLen bits by flattening
// over-long codes (the depth-adjustment trick DEFLATE implementations
// use). The code table is stored canonically: only the bit length of each
// symbol is serialized, and both sides rebuild identical codes from the
// sorted (length, symbol) order.
package huffman

import (
	"errors"
	"sort"

	"fpcompress/internal/bitio"
)

// MaxCodeLen bounds code lengths so the decoder can use a fixed-size
// lookup (and the length table serializes in 4 bits per symbol... one
// nibble would cap at 15; we store lengths in 5 bits to allow 16..31-deep
// trees to be flattened to MaxCodeLen instead).
const MaxCodeLen = 15

// ErrCorrupt reports undecodable input.
var ErrCorrupt = errors.New("huffman: corrupt input")

// codeLengths computes limited canonical code lengths for the given
// frequencies (zero-frequency symbols get length 0).
func codeLengths(freqs *[256]int) [256]uint8 {
	type node struct {
		weight      int
		left, right int32 // indices into nodes; -1 for leaves
		sym         int
	}
	var nodes []node
	var active []int32
	for s, f := range freqs {
		if f > 0 {
			nodes = append(nodes, node{weight: f, left: -1, right: -1, sym: s})
			active = append(active, int32(len(nodes)-1))
		}
	}
	var lengths [256]uint8
	switch len(active) {
	case 0:
		return lengths
	case 1:
		lengths[nodes[active[0]].sym] = 1
		return lengths
	}
	// Huffman tree via repeated extraction of the two lightest roots.
	for len(active) > 1 {
		sort.Slice(active, func(a, b int) bool {
			return nodes[active[a]].weight > nodes[active[b]].weight
		})
		a := active[len(active)-1]
		b := active[len(active)-2]
		active = active[:len(active)-2]
		nodes = append(nodes, node{weight: nodes[a].weight + nodes[b].weight, left: a, right: b})
		active = append(active, int32(len(nodes)-1))
	}
	// Depth-first walk assigns lengths.
	var walk func(i int32, depth uint8)
	walk = func(i int32, depth uint8) {
		n := nodes[i]
		if n.left < 0 {
			if depth == 0 {
				depth = 1
			}
			lengths[n.sym] = depth
			return
		}
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(active[0], 0)
	limitLengths(&lengths)
	return lengths
}

// limitLengths flattens codes deeper than MaxCodeLen while keeping the
// Kraft sum exactly 1 (the standard length-limiting adjustment).
func limitLengths(lengths *[256]uint8) {
	over := false
	for _, l := range lengths {
		if l > MaxCodeLen {
			over = true
			break
		}
	}
	if !over {
		return
	}
	// Clamp, then repair the Kraft inequality by deepening the shallowest
	// codes' slack.
	kraft := 0
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		if l > MaxCodeLen {
			lengths[s] = MaxCodeLen
		}
		kraft += 1 << (MaxCodeLen - lengths[s])
	}
	// While over-subscribed, deepen the deepest non-max code by one.
	for kraft > 1<<MaxCodeLen {
		for s := range lengths {
			l := lengths[s]
			if l > 0 && l < MaxCodeLen {
				lengths[s] = l + 1
				kraft -= 1 << (MaxCodeLen - l - 1)
				break
			}
		}
	}
	_ = kraft
}

// canonicalCodes assigns canonical codes from lengths: shorter codes
// first, ties broken by symbol order.
func canonicalCodes(lengths *[256]uint8) [256]uint16 {
	type ls struct {
		sym int
		l   uint8
	}
	var order []ls
	for s, l := range lengths {
		if l > 0 {
			order = append(order, ls{s, l})
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].l != order[b].l {
			return order[a].l < order[b].l
		}
		return order[a].sym < order[b].sym
	})
	var codes [256]uint16
	code := uint16(0)
	prevLen := uint8(0)
	for _, e := range order {
		code <<= e.l - prevLen
		codes[e.sym] = code
		code++
		prevLen = e.l
	}
	return codes
}

// Encode compresses src. Layout: uvarint length, 256 x 5-bit code lengths,
// then the bit stream.
func Encode(src []byte) []byte {
	var freqs [256]int
	for _, c := range src {
		freqs[c]++
	}
	lengths := codeLengths(&freqs)
	codes := canonicalCodes(&lengths)

	out := bitio.AppendUvarint(nil, uint64(len(src)))
	w := bitio.NewWriterBuf(out)
	for _, l := range lengths {
		w.WriteBits(uint64(l), 5)
	}
	for _, c := range src {
		w.WriteBits(uint64(codes[c]), uint(lengths[c]))
	}
	return w.Bytes()
}

// Decode inverts Encode.
func Decode(enc []byte) ([]byte, error) {
	n64, hn := bitio.Uvarint(enc)
	if hn == 0 || n64 > uint64(len(enc))*MaxCodeLen*8+1024 {
		return nil, ErrCorrupt
	}
	r := bitio.NewReader(enc[hn:])
	var lengths [256]uint8
	maxLen := uint8(0)
	for s := 0; s < 256; s++ {
		v, err := r.ReadBits(5)
		if err != nil {
			return nil, ErrCorrupt
		}
		if v > MaxCodeLen {
			return nil, ErrCorrupt
		}
		lengths[s] = uint8(v)
		if lengths[s] > maxLen {
			maxLen = lengths[s]
		}
	}
	if n64 > 0 && maxLen == 0 {
		return nil, ErrCorrupt
	}
	// Canonical codes fit in maxLen bits only when the lengths satisfy
	// Kraft's inequality; lengths that oversubscribe it would index past
	// the lookup table below.
	var kraft uint64
	for _, l := range lengths {
		if l > 0 {
			kraft += 1 << (maxLen - l)
		}
	}
	if kraft > 1<<maxLen {
		return nil, ErrCorrupt
	}
	codes := canonicalCodes(&lengths)
	// Build a full lookup table at maxLen bits: every prefix maps to
	// (symbol, length).
	type entry struct {
		sym byte
		l   uint8
	}
	table := make([]entry, 1<<maxLen)
	for s := 0; s < 256; s++ {
		l := lengths[s]
		if l == 0 {
			continue
		}
		base := uint(codes[s]) << (maxLen - l)
		count := uint(1) << (maxLen - l)
		for k := uint(0); k < count; k++ {
			table[base+k] = entry{byte(s), l}
		}
	}
	dst := make([]byte, 0, n64)
	var acc uint64
	var accBits uint
	for uint64(len(dst)) < n64 {
		for accBits < uint(maxLen) {
			b, err := r.ReadBits(1) // bit-granular tail handling
			if err != nil {
				// Allow draining the final partial code from padding.
				b = 0
			}
			acc = acc<<1 | b
			accBits++
		}
		idx := (acc >> (accBits - uint(maxLen))) & (1<<maxLen - 1)
		e := table[idx]
		if e.l == 0 {
			return nil, ErrCorrupt
		}
		accBits -= uint(e.l)
		dst = append(dst, e.sym)
	}
	return dst, nil
}
