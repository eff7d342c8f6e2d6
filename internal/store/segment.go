package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Segment file format.
//
// A segment is a sequence of framed record blocks:
//
//	magic "HFTSEG1\n" (8 bytes)
//	repeat: u32 payload length | u32 CRC32C(payload) | payload
//
// The CRC catches torn or flipped bytes inside one block; the
// manifest's exact byte count catches a segment truncated or extended
// at a frame boundary (every CRC fine, data missing); a corrupted
// frame header either breaks the framing outright or shifts the CRC
// window off its payload. Together the shallow checks cover every byte
// of the file, so the boot path stops there — hashing 400KB of segment
// through SHA-256 was the single largest line in the warm-boot
// profile. The manifest still records each segment's SHA-256: Fsck
// (and hftstore fsck) verifies it, pinning the exact published bytes
// against multi-field corruption that a per-block CRC could in
// principle be collided past.

var segMagic = []byte("HFTSEG1\n")

// castagnoli is the CRC32C polynomial table (the checksum storage
// systems conventionally use; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxBlockBytes bounds a single block frame; a corrupt length prefix
// must not drive a giant allocation.
const maxBlockBytes = 64 << 20

// appendBlockFrame frames one payload into buf.
func appendBlockFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
	return append(buf, payload...)
}

// segmentDigest is the hex SHA-256 of a segment's full byte content.
func segmentDigest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// CheckSegment holds one segment's bytes to their manifest entry:
// exact size first, then the whole-file SHA-256, which pins the exact
// published bytes. Every copy of a shipped segment passes it before it
// counts — fetched, resumed, reused locally, or supplied by a repair
// peer. A mismatch wraps ErrVerify.
func CheckSegment(data []byte, si SegmentInfo) error {
	return checkSegmentFrom(bytes.NewReader(data), si)
}

// checkSegmentFile is CheckSegment over a file; open errors pass as is.
func checkSegmentFile(path string, si SegmentInfo) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return checkSegmentFrom(f, si)
}

// checkSegmentFrom streams r through SHA-256 while it counts bytes, and
// stops one byte past the manifest's size, so no copy is ever buffered
// whole and an over-long one costs a single byte more to refuse.
func checkSegmentFrom(r io.Reader, si SegmentInfo) error {
	h := sha256.New()
	n, err := io.Copy(h, io.LimitReader(r, si.Bytes+1))
	switch {
	case err != nil:
		return fmt.Errorf("store: reading segment %s: %w", si.Name, err)
	case n > si.Bytes:
		return fmt.Errorf("%w: segment %s is over the %d bytes the manifest says",
			ErrVerify, si.Name, si.Bytes)
	case n != si.Bytes:
		return fmt.Errorf("%w: segment %s is %d bytes, manifest says %d",
			ErrVerify, si.Name, n, si.Bytes)
	case hex.EncodeToString(h.Sum(nil)) != si.SHA256:
		return fmt.Errorf("%w: segment %s SHA-256 mismatch", ErrVerify, si.Name)
	}
	return nil
}

// readSegment verifies and unframes one segment file against its
// manifest entry: size, magic, then every block CRC — plus, when deep,
// the whole-file SHA-256 (the Fsck scrub; the boot path relies on the
// CRC chain, see the format comment above). It returns the block
// payloads; any failure poisons the whole segment (and with it the
// generation).
func readSegment(path string, want SegmentInfo, deep bool) ([][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: reading segment: %w", err)
	}
	if int64(len(data)) != want.Bytes {
		return nil, fmt.Errorf("store: segment %s is %d bytes, manifest says %d",
			want.Name, len(data), want.Bytes)
	}
	if deep {
		if got := segmentDigest(data); got != want.SHA256 {
			return nil, fmt.Errorf("store: segment %s SHA-256 mismatch (%s != %s)",
				want.Name, got[:12], want.SHA256[:min(12, len(want.SHA256))])
		}
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != string(segMagic) {
		return nil, fmt.Errorf("store: segment %s has bad magic", want.Name)
	}
	data = data[len(segMagic):]
	var blocks [][]byte
	for len(data) > 0 {
		if len(data) < 8 {
			return nil, fmt.Errorf("store: segment %s: truncated block frame", want.Name)
		}
		n := binary.LittleEndian.Uint32(data)
		sum := binary.LittleEndian.Uint32(data[4:])
		if n > maxBlockBytes {
			return nil, fmt.Errorf("store: segment %s: block length %d exceeds %d", want.Name, n, maxBlockBytes)
		}
		if len(data) < 8+int(n) {
			return nil, fmt.Errorf("store: segment %s: block overruns segment", want.Name)
		}
		payload := data[8 : 8+int(n)]
		if got := crc32.Checksum(payload, castagnoli); got != sum {
			return nil, fmt.Errorf("store: segment %s: block CRC32C mismatch (%08x != %08x)",
				want.Name, got, sum)
		}
		blocks = append(blocks, payload)
		data = data[8+int(n):]
	}
	return blocks, nil
}
