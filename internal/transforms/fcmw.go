package transforms

import (
	"encoding/binary"

	"fpcompress/internal/bitio"
	"fpcompress/internal/wordio"
)

// FCMW is the windowed DPratio chunk transform: FCM's table encoder
// followed by DIFFMS64 → RAZE → RARE applied to the two halves of the FCM
// stream as independent segments. The FCM stage doubles the chunk into a
// value array and a distance array; in whole-input DPratio those halves
// land in different 16 kB chunks and each gets its own RAZE/RARE split k,
// but per chunk they would share one k — and on low-match chunks the
// all-zero distance half (64 eliminable leading bits per word) dominates
// the split model, pushing k to 64 and storing every value word raw. The
// segmented encoding restores the whole-input behavior: segment A is the
// 8-byte FCM header plus the value array, segment B the distance array
// plus the verbatim tail, each encoded by its own DIFFMS64 → RAZE → RARE
// chain with its own split.
//
// Encoded form: uvarint(len(encoded segment A)), segment A's encoding,
// then segment B's encoding to the end of the chunk payload.
type FCMW struct{}

// FCMWSplit returns the boundary between the FCM stream's value half
// (header + value array) and distance half (distance array + tail) for a
// decoded chunk of srcLen bytes. Exported for the fused kernel, which
// segments the same stream without materializing it as bytes.
func FCMWSplit(srcLen int) int { return fcmHeaderLen + (srcLen / 8 * 8) }

// fcmwRatio is the per-segment stage chain.
var fcmwRatio = Pipeline{DiffMS{Word: wordio.W64}, RAZE{}, RARE{}}

// Name implements Transform.
func (FCMW) Name() string { return "FCMW64" }

// ForwardInto implements Transform.
func (FCMW) ForwardInto(dst, src []byte) []byte {
	fp := GetBuf()
	defer PutBuf(fp)
	stream := FCM{Table: true}.ForwardInto((*fp)[:0], src)
	*fp = stream
	split := FCMWSplit(len(src))
	ap := GetBuf()
	defer PutBuf(ap)
	encA := fcmwRatio.ForwardInto((*ap)[:0], stream[:split])
	*ap = encA
	dst = bitio.AppendUvarint(dst, uint64(len(encA)))
	dst = append(dst, encA...)
	return fcmwRatio.ForwardInto(dst, stream[split:])
}

// InverseInto implements Transform. Each segment decodes under the
// pipeline interior budget (the FCM stream is at most 2x the decoded
// chunk plus its header, so both halves fit the usual 2*maxDecoded+64
// headroom); the final decoded length is checked against maxDecoded
// exactly.
func (FCMW) InverseInto(dst, enc []byte, maxDecoded int) ([]byte, error) {
	lenA, m := binary.Uvarint(enc)
	if m <= 0 || lenA > uint64(len(enc)-m) {
		return nil, Corruptf("fcmw: bad segment length")
	}
	sb := StageBudget(maxDecoded)
	sp := GetBuf()
	defer PutBuf(sp)
	stream, err := fcmwRatio.InverseInto((*sp)[:0], enc[m:m+int(lenA)], sb)
	if err != nil {
		return nil, Corruptf("fcmw: value segment: %v", err)
	}
	stream, err = fcmwRatio.InverseInto(stream, enc[m+int(lenA):], sb)
	if err != nil {
		return nil, Corruptf("fcmw: distance segment: %v", err)
	}
	*sp = stream
	out, err := FCM{Table: true}.InverseInto(dst, stream, sb)
	if err != nil {
		return nil, err
	}
	if maxDecoded >= 0 && len(out)-len(dst) > maxDecoded {
		return nil, Corruptf("fcmw: decoded length %d exceeds budget %d", len(out)-len(dst), maxDecoded)
	}
	return out, nil
}
