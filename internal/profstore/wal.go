package profstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
)

// The WAL frame format (version 2). Every record the store appends —
// to the WAL or to a snapshot — is one frame:
//
//	offset  size  field
//	0       4     magic  F5 'I' 'P' 'W'
//	4       1     version (2)
//	5       4     payload length, little-endian
//	9       4     CRC32C (Castagnoli) of the payload, little-endian
//	13      len   payload: the record
//
// The payload is the record itself, with no escaping: uvarint len(id),
// id, uvarint ntags, then uvarint len(tag) and tag for each tag, then
// the raw XML document to the end of the payload. The XML is the
// durable form: replay re-ingests those exact bytes through the same
// tolerant read, so a recovered store is bit-for-bit the store that
// wrote the log, whatever bytes its ids, tags and documents hold.
//
// A frame that is torn (crash mid-append), fails its checksum (bit rot)
// or claims more than maxWALPayload bytes is skipped and counted, and
// the scan resynchronises at the next magic byte, so one bad frame never
// swallows the frames behind it. Nothing is replayed without its CRC.
// A checksummed version-1 frame (the earlier JSON payload) is not
// corruption but a log this build cannot read: replay refuses the whole
// image rather than drop it.
const (
	walMagic0     = 0xf5
	walVersion    = 2
	walHeaderSize = 13
	// maxWALPayload is the largest frame the writer acks and the reader
	// accepts: a whole ingest body plus room for its id and tags.
	maxWALPayload = MaxIngestBytes + 1<<20
)

var walMagic = [4]byte{walMagic0, 'I', 'P', 'W'}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errWALVersion1 reports a checksummed version-1 frame.
var errWALVersion1 = errors.New("holds a version-1 (JSON) frame; this build reads only version 2")

// walRecord is one decoded record. XML aliases the image it was decoded
// from.
type walRecord struct {
	ID   string
	Tags []string
	XML  []byte
}

// appendRecord appends the payload encoding of one record to buf.
func appendRecord(buf []byte, id string, tags []string, xml []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(id)))
	buf = append(buf, id...)
	buf = binary.AppendUvarint(buf, uint64(len(tags)))
	for _, t := range tags {
		buf = binary.AppendUvarint(buf, uint64(len(t)))
		buf = append(buf, t...)
	}
	return append(buf, xml...)
}

// decodeRecord is appendRecord's inverse; ok=false for a payload no
// appendRecord could have produced.
func decodeRecord(payload []byte) (rec walRecord, ok bool) {
	id, p, ok := cutField(payload)
	if !ok {
		return rec, false
	}
	rec.ID = string(id)
	n, k := binary.Uvarint(p)
	// Every tag takes at least its length byte, which bounds n before
	// anything is allocated for it.
	if k <= 0 || n > uint64(len(p)-k) {
		return rec, false
	}
	p = p[k:]
	if n > 0 {
		rec.Tags = make([]string, n)
	}
	for i := range rec.Tags {
		var tag []byte
		if tag, p, ok = cutField(p); !ok {
			return rec, false
		}
		rec.Tags[i] = string(tag)
	}
	rec.XML = p
	return rec, true
}

// cutField splits one uvarint-length-prefixed field off the front of p.
func cutField(p []byte) (field, rest []byte, ok bool) {
	n, k := binary.Uvarint(p)
	if k <= 0 || n > uint64(len(p)-k) {
		return nil, nil, false
	}
	end := k + int(n)
	return p[k:end], p[end:], true
}

// sealFrame fills in the header of a frame laid out as [walHeaderSize
// bytes of placeholder][payload] and returns it.
func sealFrame(frame []byte) []byte {
	payload := frame[walHeaderSize:]
	copy(frame[:4], walMagic[:])
	frame[4] = walVersion
	binary.LittleEndian.PutUint32(frame[5:9], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[9:13], crc32.Checksum(payload, castagnoli))
	return frame
}

// walScan iterates the records of a WAL (or snapshot) image, calling fn
// with each checksummed, decodable record and the payload it was decoded
// from. It returns the number of frames skipped as torn, corrupt or
// undecodable, and errWALVersion1 (with no records after it visited) if
// the image holds a checksummed version-1 frame. Any byte sequence
// terminates, which FuzzWALReplay leans on.
func walScan(data []byte, fn func(rec *walRecord, payload []byte)) (skipped int, err error) {
	for pos := 0; pos < len(data); {
		h := data[pos:]
		if len(h) >= walHeaderSize && bytes.Equal(h[:4], walMagic[:]) && (h[4] == walVersion || h[4] == 1) {
			plen := binary.LittleEndian.Uint32(h[5:9])
			if plen <= maxWALPayload && walHeaderSize+int(plen) <= len(h) {
				payload := h[walHeaderSize : walHeaderSize+int(plen)]
				if crc32.Checksum(payload, castagnoli) == binary.LittleEndian.Uint32(h[9:13]) {
					if h[4] != walVersion {
						return skipped, errWALVersion1
					}
					if rec, ok := decodeRecord(payload); ok {
						fn(&rec, payload)
					} else {
						skipped++
					}
					pos += walHeaderSize + int(plen)
					continue
				}
			}
		}
		// Not an intact frame: count it and resynchronise at the next
		// magic byte.
		skipped++
		next := bytes.IndexByte(data[pos+1:], walMagic0)
		if next < 0 {
			break
		}
		pos += 1 + next
	}
	return skipped, nil
}

// replayImage re-ingests every record of a WAL or snapshot image.
// recovered counts successful ingests (including replacements of
// already-seen ids); skipped counts torn/corrupt frames, undecodable
// records and records whose XML no longer ingests; records is the
// number of structurally valid records seen. err is walScan's refusal
// of a version-1 image.
func (s *Store) replayImage(data []byte) (recovered, skipped, records int, err error) {
	failed := 0
	bad, err := walScan(data, func(rec *walRecord, _ []byte) {
		records++
		if _, err := s.ingest(rec.XML, rec.ID, rec.Tags, false); err != nil {
			failed++
			return
		}
		recovered++
	})
	return recovered, bad + failed, records, err
}
