package fedproto

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"fexiot/internal/chaos"
)

// Checkpoint is the gob snapshot a durable server writes after closing a
// round: everything a restarted fexserver needs to resume the federation —
// the next round to collect, the pinned tensor layout, the last global
// model (replayed to rejoining clients via the ordinary hello/sync path),
// the per-client strike state, and the run's stats so counters survive the
// crash.
type Checkpoint struct {
	// Round is the next round to collect: rounds [0, Round) have closed.
	Round  int
	Shapes [][][2]int
	Names  [][]string
	Global []LayerPayload
	// Strikes maps client id → consecutive missed rounds at snapshot time.
	Strikes map[int]int
	Stats   ServerStats
}

// Checkpoint files end in a 40-byte integrity footer: the SHA-256 of the
// gob body followed by an 8-byte magic. A file without it is a torn write
// and never loads.
const (
	ckptMagic      = "FEXCKPT1"
	ckptFooterSize = sha256.Size + len(ckptMagic)
)

// PrevSuffix names the last-known-good rotation file: SaveCheckpoint moves
// the previous <path> to <path>.prev before installing the new snapshot,
// and loaders roll back to it when <path> is corrupt or truncated.
const PrevSuffix = ".prev"

// ErrCheckpointCorrupt reports a checkpoint whose integrity footer does not
// match its body, or whose body does not decode — a truncated write or
// bit rot, distinguished from a missing file so restart logic can roll
// back to the previous good snapshot instead of failing.
var ErrCheckpointCorrupt = errors.New("fedproto: corrupt checkpoint")

// ckptFS is the filesystem behind checkpoint IO. Production uses the real
// disk; chaos tests inject scripted write/rename failures through
// SetCheckpointFS.
var ckptFS chaos.FS = chaos.OSFS{}

// SetCheckpointFS swaps the filesystem used by checkpoint IO — the
// chaos-injection seam for disk faults — and returns a function restoring
// the previous one. Not for use while a server is concurrently
// checkpointing.
func SetCheckpointFS(f chaos.FS) (restore func()) {
	prev := ckptFS
	ckptFS = f
	return func() { ckptFS = prev }
}

// SaveCheckpoint writes ck atomically and durably: gob body plus SHA-256
// integrity footer into a temp file in the target directory, fsync,
// then a two-step rename that retires the previous snapshot to
// <path>.prev before installing the new one. A crash at any point leaves
// at least one intact snapshot on disk: mid-write keeps both old files,
// mid-rotation keeps .prev, and a torn final rename is caught at load by
// the footer hash.
func SaveCheckpoint(path string, ck *Checkpoint) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(ck); err != nil {
		return fmt.Errorf("fedproto: encode checkpoint: %w", err)
	}
	sum := sha256.Sum256(body.Bytes())
	body.Write(sum[:])
	body.WriteString(ckptMagic)

	dir := filepath.Dir(path)
	tmp, err := ckptFS.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer ckptFS.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(body.Bytes()); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// Rotate last-known-good: the current snapshot becomes the rollback
	// target.
	if err := ckptFS.Rename(path, path+PrevSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return ckptFS.Rename(tmp.Name(), path)
}

// LoadCheckpoint reads one snapshot file and verifies its integrity
// footer. Corruption (missing footer, hash mismatch, truncation,
// undecodable body) is reported as ErrCheckpointCorrupt, never a panic.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := ckptFS.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < ckptFooterSize || string(data[len(data)-len(ckptMagic):]) != ckptMagic {
		return nil, fmt.Errorf("%w: %s: no integrity footer", ErrCheckpointCorrupt, path)
	}
	body := data[:len(data)-ckptFooterSize]
	want := data[len(data)-ckptFooterSize : len(data)-len(ckptMagic)]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], want) {
		return nil, fmt.Errorf("%w: %s: SHA-256 mismatch", ErrCheckpointCorrupt, path)
	}
	var ck Checkpoint
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&ck); err != nil {
		return nil, fmt.Errorf("%w: %s: decode: %v", ErrCheckpointCorrupt, path, err)
	}
	return &ck, nil
}

// LoadLatestCheckpoint loads the freshest intact snapshot for path: the
// file itself when it verifies, otherwise the <path>.prev rotation target.
// It returns the snapshot and the file it actually came from. When neither
// file exists the error satisfies errors.Is(err, fs.ErrNotExist) — a fresh
// federation; when files exist but none verifies, the joined corruption
// errors are returned instead.
func LoadLatestCheckpoint(path string) (*Checkpoint, string, error) {
	ck, err := LoadCheckpoint(path)
	if err == nil {
		return ck, path, nil
	}
	prev := path + PrevSuffix
	ckPrev, errPrev := LoadCheckpoint(prev)
	if errPrev == nil {
		return ckPrev, prev, nil
	}
	if errors.Is(err, fs.ErrNotExist) && errors.Is(errPrev, fs.ErrNotExist) {
		return nil, "", err
	}
	return nil, "", errors.Join(err, errPrev)
}

// saveCheckpoint snapshots the server state after nextRound−1 closed.
func (s *Server) saveCheckpoint(nextRound int) error {
	s.mu.Lock()
	ck := &Checkpoint{
		Round:   nextRound,
		Shapes:  s.shapes,
		Names:   s.names,
		Global:  s.global,
		Strikes: map[int]int{},
		Stats:   s.stats,
	}
	ck.Stats.Responders = append([]int(nil), s.stats.Responders...)
	for _, st := range s.clients {
		if st.alive {
			ck.Strikes[st.id] = st.strikes
		}
	}
	s.mu.Unlock()
	return SaveCheckpoint(s.cfg.CheckpointPath, ck)
}

// restoreCheckpoint loads the latest intact snapshot, if any, before Run
// starts listening: the current file when it verifies, the .prev rollback
// when the latest is corrupt or truncated. Missing files are a fresh
// federation, not an error.
func (s *Server) restoreCheckpoint() error {
	if s.cfg.CheckpointPath == "" {
		return nil
	}
	ck, _, err := LoadLatestCheckpoint(s.cfg.CheckpointPath)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.startRound = ck.Round
	s.round = ck.Round
	s.shapes = ck.Shapes
	s.names = ck.Names
	s.global = ck.Global
	s.stats = ck.Stats
	s.restoredStrikes = ck.Strikes
	return nil
}
