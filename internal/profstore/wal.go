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
	return append(appendStrs(appendStr(buf, id), tags), xml...)
}

// decodeRecord is appendRecord's inverse; ok=false for a payload no
// appendRecord could have produced.
func decodeRecord(payload []byte) (rec walRecord, ok bool) {
	r := reader{p: payload}
	rec.ID, rec.Tags = r.str(), r.strs(make([]string, r.count(1)))
	rec.XML = r.p
	return rec, !r.bad
}

// The field helpers of the one record codec, shared by the WAL record and
// the wire image (wire.go): a string is its uvarint length and its bytes,
// a list its uvarint count and its elements, a signed integer a zig-zag
// varint.

func appendStr(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}

func appendStrs(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendStr(buf, s)
	}
	return buf
}

func appendUvarints(buf []byte, vs ...int) []byte {
	for _, v := range vs {
		buf = binary.AppendUvarint(buf, uint64(v))
	}
	return buf
}

func appendVarints(buf []byte, vs ...int64) []byte {
	for _, v := range vs {
		buf = binary.AppendVarint(buf, v)
	}
	return buf
}

// reader reads the fields the appenders write. The first field no
// appender could have written — a length or count past the end, a varint
// cut short or not in its shortest form — sets bad, and every read after
// it returns zero: a decoder checks bad once, at the end.
type reader struct {
	p []byte
	// body, when set, is the decoded image as one string, and str returns
	// substrings of it instead of copies.
	body string
	bad  bool
}

func (r *reader) fail() { r.p, r.bad = nil, true }

func (r *reader) uvarint() uint64 {
	v, k := binary.Uvarint(r.p)
	if k <= 0 || k > 1 && r.p[k-1] == 0 {
		r.fail()
		return 0
	}
	r.p = r.p[k:]
	return v
}

func (r *reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// count reads a list count, bounded before anything is allocated for the
// list: each element takes at least size of the bytes left.
func (r *reader) count(size int) int {
	n := r.uvarint()
	if n > uint64(len(r.p)/size) {
		r.fail()
		return 0
	}
	return int(n)
}

func (r *reader) str() string {
	n := r.count(1)
	b := r.p[:n]
	r.p = r.p[n:]
	if r.body == "" {
		return string(b)
	}
	end := len(r.body) - len(r.p)
	return r.body[end-n : end]
}

// strs fills ss with the strings that follow, appendStrs' inverse once
// the count is read.
func (r *reader) strs(ss []string) []string {
	for i := range ss {
		ss[i] = r.str()
	}
	return ss
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
