package profstore

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// SnapshotInfo describes one completed snapshot.
type SnapshotInfo struct {
	Seq     uint64 `json:"seq"`
	Jobs    int    `json:"jobs"`    // live records written
	Bytes   int64  `json:"bytes"`   // snapshot file size
	Dropped int    `json:"dropped"` // stale or dead records compacted away
	Path    string `json:"path"`
}

// snapshotPath names snapshot seq for the store at walPath. The fixed
// width keeps lexical and numeric order aligned for ls-debuggability.
func snapshotPath(walPath string, seq uint64) string {
	return fmt.Sprintf("%s.snapshot-%08d", walPath, seq)
}

// latestSnapshot returns the newest snapshot seq and path for walPath,
// or (0, ""). Stray .tmp files from a crash mid-snapshot are removed:
// they were never renamed into place, so no recovery depends on them.
func latestSnapshot(walPath string) (uint64, string) {
	matches, _ := filepath.Glob(walPath + ".snapshot-*")
	var bestSeq uint64
	best := ""
	for _, m := range matches {
		if strings.HasSuffix(m, ".tmp") {
			os.Remove(m)
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimPrefix(m, walPath+".snapshot-"), 10, 64)
		if err != nil || seq == 0 {
			continue
		}
		if seq > bestSeq {
			bestSeq, best = seq, m
		}
	}
	return bestSeq, best
}

// Snapshot compacts the durable state: it folds the current snapshot
// and WAL into snapshot-<seq+1> — one framed record per live job, last
// write per id winning, sorted by id — written atomically (temp file,
// fsync, rename, directory fsync), then truncates the WAL. Ingests are
// blocked for the duration; queries are not. The durable XML bytes
// carry over verbatim, so replay semantics cannot drift.
//
// Crash windows, all safe:
//
//   - before the rename: the .tmp file is ignored (and removed) at the
//     next open; recovery uses the previous snapshot plus the full WAL.
//   - after the rename, before the WAL truncate: recovery loads the new
//     snapshot and then replays WAL records it already contains —
//     re-ingest is idempotent (same id, same bytes), so the corpus and
//     every query answer are unchanged.
//   - after the truncate: the compacted steady state.
func (s *Store) Snapshot() (SnapshotInfo, error) {
	s.lifeMu.Lock()
	defer s.lifeMu.Unlock()
	var info SnapshotInfo
	if s.closed {
		return info, ErrClosed
	}
	if s.wal == nil {
		return info, fmt.Errorf("profstore: snapshot: store has no WAL")
	}
	if s.readonly.Load() {
		return info, s.readOnlyErr()
	}
	seq := s.snapSeq.Load() + 1
	info.Seq = seq

	// Make every acknowledged append visible to the read pass below.
	if err := s.syncWAL(); err != nil {
		s.walErrors.Add(1)
		s.setReadOnly(fmt.Sprintf("WAL fsync failed: %v", err))
		return info, fmt.Errorf("profstore: snapshot: syncing WAL: %v: %w", err, ErrReadOnly)
	}

	// Fold previous snapshot + WAL into unsealed frames: last record per
	// id wins, and only ids still live in the store are kept (records
	// whose XML failed replay, for instance, compact away).
	recs := make(map[string][]byte)
	total := 0
	fold := func(path string) error {
		data, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		_, err = walScan(data, func(rec *walRecord, payload []byte) {
			total++
			recs[rec.ID] = append(make([]byte, walHeaderSize, walHeaderSize+len(payload)), payload...)
		})
		return err
	}
	if prev := s.snapSeq.Load(); prev != 0 {
		if err := fold(snapshotPath(s.walPath, prev)); err != nil {
			return info, fmt.Errorf("profstore: snapshot: reading previous snapshot: %w", err)
		}
	}
	if err := fold(s.walPath); err != nil {
		return info, fmt.Errorf("profstore: snapshot: reading WAL: %w", err)
	}
	ids := make([]string, 0, len(recs))
	for id := range recs {
		if s.Get(id) != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	info.Jobs = len(ids)
	info.Dropped = total - len(ids)

	final := snapshotPath(s.walPath, seq)
	tmp := final + ".tmp"
	write := func() error {
		f, err := os.Create(tmp)
		if err != nil {
			return err
		}
		w := bufio.NewWriterSize(f, 1<<20)
		for _, id := range ids {
			if _, err := w.Write(sealFrame(recs[id])); err != nil {
				f.Close()
				return err
			}
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
		if st, err := f.Stat(); err == nil {
			info.Bytes = st.Size()
		}
		return f.Close()
	}
	if err := write(); err != nil {
		os.Remove(tmp)
		return info, fmt.Errorf("profstore: snapshot: writing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return info, fmt.Errorf("profstore: snapshot: %w", err)
	}
	syncDir(filepath.Dir(final))
	info.Path = final

	// The snapshot is durable; the WAL records it covers retire. A
	// truncate failure leaves nothing lost — snapshot + untruncated WAL
	// replay idempotently — but the write path is now suspect.
	if err := s.truncateWAL(); err != nil {
		s.walErrors.Add(1)
		s.setReadOnly(fmt.Sprintf("WAL truncate failed: %v", err))
		return info, fmt.Errorf("profstore: snapshot: truncating WAL: %v: %w", err, ErrReadOnly)
	}
	s.snapSeq.Store(seq)
	s.snapshots.Add(1)
	s.walAppends.Store(0)

	// Older snapshots are superseded; removal is best-effort hygiene.
	if matches, err := filepath.Glob(s.walPath + ".snapshot-*"); err == nil {
		for _, m := range matches {
			if m == final || strings.HasSuffix(m, ".tmp") {
				continue
			}
			if old, err := strconv.ParseUint(strings.TrimPrefix(m, s.walPath+".snapshot-"), 10, 64); err == nil && old < seq {
				os.Remove(m)
			}
		}
	}
	return info, nil
}

func (s *Store) syncWAL() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if err := s.walW.Sync(); err != nil {
		return err
	}
	s.unsynced = 0
	return nil
}

func (s *Store) truncateWAL() error {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if err := s.wal.Truncate(0); err != nil {
		return err
	}
	if _, err := s.wal.Seek(0, 0); err != nil {
		return err
	}
	s.unsynced = 0
	return s.wal.Sync()
}

// syncDir fsyncs a directory so a rename within it is durable.
// Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
