package replica

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/wal"
)

// The persistent follower cache: the replica's current image (store,
// pending set, applied watermark, term — the same wire format a
// leader's CheckpointImage ships) spilled to CacheDir, so a restarted
// follower resumes by tailing the leader from its local stamp instead
// of re-pulling the full image over the network. The spill goes through
// wal.ReplaceFile, as checkpoints do, so a crash mid-spill leaves the
// previous image intact and a crash after the rename cannot lose the
// directory entry. The cache is an optimization, never an authority: a
// stamp the leader has checkpointed past simply resyncs over the network
// as usual.

// cacheFileName is the spilled image inside CacheDir.
const cacheFileName = "follower.image"

// cachePath resolves the spill target ("" when caching is off).
func (f *Follower) cachePath() string {
	if f.CacheDir == "" {
		return ""
	}
	return filepath.Join(f.CacheDir, cacheFileName)
}

// SaveCache spills the replica's current image to CacheDir atomically.
// No-op without a CacheDir or before bootstrap. Called by the follower
// server on clean shutdown and after network bootstraps; callers may
// also spill periodically to bound restart catch-up.
func (f *Follower) SaveCache() error {
	path := f.cachePath()
	st := f.state.Load()
	if path == "" || st == nil {
		return nil
	}
	if err := os.MkdirAll(f.CacheDir, 0o755); err != nil {
		return fmt.Errorf("replica: cache dir: %w", err)
	}
	if err := wal.ReplaceFile(path, st.EncodeImage); err != nil {
		return fmt.Errorf("replica: cache spill: %w", err)
	}
	f.cacheSpills.Add(1)
	return nil
}

// ResumeFromCache installs the replica state spilled by a previous
// SaveCache. Returns (false, nil) when caching is off or no image
// exists; an unreadable or corrupt image is an error the caller should
// treat as "fall back to network bootstrap", not as fatal.
func (f *Follower) ResumeFromCache() (bool, error) {
	path := f.cachePath()
	if path == "" {
		return false, nil
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("replica: cache read: %w", err)
	}
	st, err := core.BootReplica(data)
	if err != nil {
		return false, fmt.Errorf("replica: cached image: %w", err)
	}
	f.state.Store(st)
	if seq := st.AppliedSeq(); seq > f.leaderSeq.Load() {
		f.leaderSeq.Store(seq)
	}
	raiseTerm(&f.leaderTerm, st.Term())
	f.cacheResumes.Add(1)
	return true, nil
}

// BootstrapOrResume is the follower's restart path: resume from the
// local cache when possible (the next Sync tails the leader from the
// cached stamp, or resyncs if the leader truncated past it), otherwise
// bootstrap over the network and spill the fresh image so the NEXT
// restart is local. Cache failures degrade to the network path with a
// Logf note — the cache is never load-bearing.
func (f *Follower) BootstrapOrResume() error {
	ok, err := f.ResumeFromCache()
	if ok {
		return nil
	}
	if err != nil && f.Logf != nil {
		f.Logf("replica: cache resume failed, bootstrapping over the network: %v", err)
	}
	if err := f.Bootstrap(); err != nil {
		return err
	}
	if err := f.SaveCache(); err != nil && f.Logf != nil {
		f.Logf("replica: cache spill after bootstrap: %v", err)
	}
	return nil
}

// CacheResumes counts bootstraps served from the local cache.
func (f *Follower) CacheResumes() int64 { return f.cacheResumes.Load() }
