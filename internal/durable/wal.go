package durable

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"strings"
)

// WAL layout. A segment file is
//
//	magic "EEDWAL1\n" | u64 base LSN | frame*
//
// and each frame is
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//	payload = u64 LSN | entry bytes
//
// all little-endian. LSNs are assigned densely from 1; a segment's
// base LSN is the LSN its first frame will carry, and segment files
// are named wal-<base LSN, %020d>.log so a lexicographic directory
// listing is LSN order. A frame whose length prefix runs past EOF or
// whose CRC mismatches is torn: recovery truncates the segment there
// and discards any later segments — by the ack-durability contract
// nothing at or beyond a tear was ever acknowledged.
const (
	walMagic  = "EEDWAL1\n"
	snapMagic = "EEDSNP1\n"

	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"

	frameHeader = 8        // u32 len + u32 crc
	maxFrame    = 64 << 20 // sanity bound on one frame's payload
)

func segName(base uint64) string { return fmt.Sprintf("%s%020d%s", segPrefix, base, segSuffix) }

func snapName(lsn uint64) string { return fmt.Sprintf("%s%020d%s", snapPrefix, lsn, snapSuffix) }

// parseSeq extracts the LSN from a segment or snapshot base name, or
// ok=false for names that are neither (tmp leftovers, stray files).
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	n, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// appendFrame appends one framed payload (LSN + entry) to buf.
func appendFrame(buf []byte, lsn uint64, entry []byte) []byte {
	payload := 8 + len(entry)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payload))
	crcAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC placeholder
	start := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, lsn)
	buf = append(buf, entry...)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc32.ChecksumIEEE(buf[start:]))
	return buf
}

// segmentHeader renders a fresh segment's header.
func segmentHeader(base uint64) []byte {
	buf := make([]byte, 0, len(walMagic)+8)
	buf = append(buf, walMagic...)
	return binary.LittleEndian.AppendUint64(buf, base)
}

// replayResult describes one segment's replay.
type replayResult struct {
	lastLSN    uint64 // highest LSN seen (0 if none)
	validBytes int64  // prefix length holding only whole valid frames
	torn       bool   // a torn/corrupt frame ended the scan before EOF
	tornBytes  int64  // bytes beyond validBytes when torn
}

// replaySegment scans one segment, calling apply(lsn, entry) for every
// valid frame with lsn > fromLSN. Frames must carry densely increasing
// LSNs starting at the segment's base; any violation, CRC mismatch, or
// short read is treated as a tear at that frame's offset. A corrupt
// header is a tear at offset 0. Only apply's errors are returned as
// errors — media-level tears come back in the result.
func replaySegment(f File, base, fromLSN uint64, apply func(lsn uint64, entry []byte) error) (replayResult, error) {
	res := replayResult{}
	br := bufio.NewReaderSize(f, 1<<16)
	var consumed int64
	tear := func() (replayResult, error) {
		rest, _ := io.Copy(io.Discard, br)
		res.torn = true
		res.tornBytes = consumed + rest - res.validBytes
		return res, nil
	}
	head := make([]byte, len(walMagic)+8)
	n, err := io.ReadFull(br, head)
	consumed += int64(n)
	if err != nil || string(head[:len(walMagic)]) != walMagic ||
		binary.LittleEndian.Uint64(head[len(walMagic):]) != base {
		return tear()
	}
	res.validBytes = consumed
	next := base
	var hdr [frameHeader]byte
	payload := make([]byte, 0, 4096)
	for {
		n, err = io.ReadFull(br, hdr[:])
		consumed += int64(n)
		if err == io.EOF {
			return res, nil
		}
		if err != nil {
			return tear()
		}
		plen := binary.LittleEndian.Uint32(hdr[:4])
		if plen < 8 || plen > maxFrame {
			return tear()
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		n, err = io.ReadFull(br, payload)
		consumed += int64(n)
		if err != nil {
			return tear()
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
			return tear()
		}
		lsn := binary.LittleEndian.Uint64(payload[:8])
		if lsn != next {
			return tear()
		}
		if lsn > fromLSN {
			if err := apply(lsn, payload[8:]); err != nil {
				return res, fmt.Errorf("durable: replay LSN %d: %w", lsn, err)
			}
		}
		next = lsn + 1
		res.lastLSN = lsn
		res.validBytes = consumed
	}
}
