// Package store implements the durable, crash-safe scenario store behind
// xrserved's -data-dir. Each loaded scenario persists as a versioned,
// length-prefixed, SHA-256-checksummed snapshot (source facts, mapping
// text, preloaded named queries) written with a temp-file → fsync →
// atomic-rename protocol into a per-scenario directory, tracked by a
// manifest that rides the same checksummed envelope. Writes retry with
// capped exponential backoff; a save that still fails is deferred and
// re-attempted by a background loop, so a transiently full or flaky disk
// degrades durability, not availability.
//
// On boot, Recover replays the manifest, re-verifies every checksum, and
// quarantines — renames into quarantine/ and reports — rather than dies
// on damage: a torn write, bit flip, or unreadable file degrades one
// tenant, never the process, mirroring the soundness-under-failure
// discipline of the query engines (serve the sound subset; DESIGN.md §16).
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Filesystem fault-injection sites fired by the write protocol and the
// recovery path. The values must match internal/faultkit's SiteFS*
// constants (duplicated so production code never imports the test
// harness). The hook fires *before* the operation it names: a returned
// error means the operation never happened, which is exactly the state a
// crash at that point leaves on disk.
const (
	SiteWrite  = "store.write"  // before the temp file's bytes are written
	SiteSync   = "store.sync"   // before an fsync (file and directory syncs both fire here)
	SiteRename = "store.rename" // before the temp file renames over the final path
	SiteRead   = "store.read"   // before a snapshot/manifest file is read back
)

const (
	scenariosDir  = "scenarios"
	quarantineDir = "quarantine"
	manifestFile  = "manifest.xr"
	snapshotFile  = "snapshot.xr"
	tmpSuffix     = ".tmp"
)

// Snapshot is the persisted form of one scenario: everything needed to
// rebuild the tenant through the registry's normal load path (the warm
// signature caches rebuild naturally from these texts). Load-time options
// have no wire surface today; when they grow one, they version in through
// the envelope's CurrentVersion.
type Snapshot struct {
	Name    string `json:"name"`
	Mapping string `json:"mapping"`
	Facts   string `json:"facts"`
	Queries string `json:"queries,omitempty"`
	// SavedAtUnixMS stamps the save time (informational; not part of any
	// integrity check).
	SavedAtUnixMS int64 `json:"saved_at_unix_ms,omitempty"`
}

// manifestEntry is one tracked scenario in the manifest payload.
type manifestEntry struct {
	Name string `json:"name"`
	// Dir is the scenario's directory under scenarios/ (the sanitized or
	// hashed form of the name; recovery never re-derives it).
	Dir string `json:"dir"`
	// SnapshotSHA256 is the hex SHA-256 of the whole snapshot file. The
	// envelope checksum inside the file is authoritative for integrity;
	// this digest is advisory (it detects a file swapped for a different
	// valid snapshot, reported as a warning).
	SnapshotSHA256 string `json:"snapshot_sha256"`
	Bytes          int64  `json:"bytes"`
	SavedAtUnixMS  int64  `json:"saved_at_unix_ms"`
}

// manifestPayload is the manifest's JSON payload inside the envelope.
type manifestPayload struct {
	Entries []manifestEntry `json:"entries"`
}

// QuarantineRecord describes one damaged artifact set aside during
// recovery (or a semantic quarantine requested by the server when a
// recovered snapshot fails to load). ID is a request-style correlation ID
// stamped on the ERROR log line and the quarantine file name.
type QuarantineRecord struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// Path is where the artifact landed under quarantine/, relative to
	// the data dir; empty when there was nothing on disk to move (e.g. a
	// manifest entry whose snapshot is missing).
	Path   string `json:"path,omitempty"`
	Reason string `json:"reason"`
}

// RecoveryReport summarizes one Recover pass.
type RecoveryReport struct {
	// Recovered holds every snapshot that passed verification, manifest
	// order first, then adopted orphans in directory order.
	Recovered []Snapshot
	// Adopted names the subset of Recovered found on disk but absent from
	// the manifest (e.g. a crash between snapshot rename and manifest
	// write); they are re-tracked and logged at WARN.
	Adopted []string
	// Quarantined lists every artifact set aside.
	Quarantined []QuarantineRecord
}

// EntryStatus is one tracked scenario as Status reports it.
type EntryStatus struct {
	Name          string `json:"name"`
	Bytes         int64  `json:"bytes,omitempty"`
	SHA256        string `json:"sha256,omitempty"`
	SavedAtUnixMS int64  `json:"saved_at_unix_ms,omitempty"`
	// Dirty marks a scenario whose latest save is deferred (persisting is
	// being retried in the background; the on-disk state, if any, is the
	// previous successful save).
	Dirty bool `json:"dirty,omitempty"`
}

// Status is a point-in-time view of the store for /v1/store and /healthz.
type Status struct {
	DataDir     string             `json:"data_dir"`
	Persisted   int                `json:"persisted"`
	Dirty       int                `json:"dirty"`
	Quarantined int                `json:"quarantined"`
	Scenarios   []EntryStatus      `json:"scenarios,omitempty"`
	Quarantine  []QuarantineRecord `json:"quarantine,omitempty"`
}

// Options tunes Open. The zero value is production-safe.
type Options struct {
	// Logger receives structured store lifecycle records (quarantines log
	// at ERROR, adoptions and deferred saves at WARN). Nil discards.
	Logger *slog.Logger
	// Metrics receives the xr_store_* counters and gauges. Nil allocates
	// a private registry (counters still work, just unexposed).
	Metrics *telemetry.Registry
	// FaultHook, when non-nil, is consulted before every filesystem
	// operation at the Site* sites (test-only; see faultkit).
	FaultHook func(site, key string) error
	// RetryAttempts caps the synchronous tries per write (default 3);
	// RetryBase is the first backoff sleep, doubling per attempt up to
	// RetryCap (defaults 25ms / 500ms).
	RetryAttempts int
	RetryBase     time.Duration
	RetryCap      time.Duration
	// RepersistInterval is the background retry tick for deferred saves
	// (default 5s; negative disables the background loop).
	RepersistInterval time.Duration
	// QuarantineRetention prunes quarantine artifacts older than the
	// window during Recover (0 = keep forever). Pruning is mtime-based:
	// the clock starts when the artifact was set aside.
	QuarantineRetention time.Duration
}

// Store is the durable scenario store. All methods are safe for
// concurrent use. Open it, Recover once before serving, then Save/Delete
// as scenarios load and unload; Close stops the background loop after a
// final flush attempt.
type Store struct {
	dir       string
	log       *slog.Logger
	met       *telemetry.Registry
	fault     func(site, key string) error
	attempts  int
	base      time.Duration
	cap       time.Duration
	retention time.Duration

	mu            sync.Mutex
	manifest      map[string]*manifestEntry
	dirty         map[string]Snapshot
	manifestDirty bool
	quarantined   []QuarantineRecord

	stop chan struct{}
	done chan struct{}
}

// Open prepares the store's directory tree and starts the background
// re-persist loop. It does not read existing data; call Recover for that
// (always, even on a fresh directory — it also cleans stray temp files).
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty data directory")
	}
	for _, d := range []string{dir, filepath.Join(dir, scenariosDir), filepath.Join(dir, quarantineDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: preparing %s: %w", d, err)
		}
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opts.Metrics == nil {
		opts.Metrics = telemetry.NewRegistry()
	}
	if opts.FaultHook == nil {
		opts.FaultHook = func(string, string) error { return nil }
	}
	if opts.RetryAttempts <= 0 {
		opts.RetryAttempts = 3
	}
	if opts.RetryBase <= 0 {
		opts.RetryBase = 25 * time.Millisecond
	}
	if opts.RetryCap <= 0 {
		opts.RetryCap = 500 * time.Millisecond
	}
	s := &Store{
		dir:       dir,
		log:       opts.Logger,
		met:       opts.Metrics,
		fault:     opts.FaultHook,
		attempts:  opts.RetryAttempts,
		base:      opts.RetryBase,
		cap:       opts.RetryCap,
		retention: opts.QuarantineRetention,
		manifest:  make(map[string]*manifestEntry),
		dirty:     make(map[string]Snapshot),
	}
	interval := opts.RepersistInterval
	if interval == 0 {
		interval = 5 * time.Second
	}
	if interval > 0 {
		s.stop = make(chan struct{})
		s.done = make(chan struct{})
		go s.repersistLoop(interval)
	}
	return s, nil
}

// Close stops the background loop and makes one final attempt to flush
// deferred saves. Safe to call once.
func (s *Store) Close() {
	if s.stop != nil {
		close(s.stop)
		<-s.done
	}
	s.flushDirty()
}

// ---------------------------------------------------------------------------
// Write path.

// Save persists one scenario: snapshot first (its own atomic write), then
// the manifest. On failure after all retries the snapshot is recorded as
// dirty and re-attempted in the background; Save still returns the error
// so the caller can log the deferral. A manifest-only failure leaves the
// snapshot durable (orphan adoption covers a crash before the manifest
// catches up) and schedules a manifest rewrite.
func (s *Store) Save(sn Snapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveLocked(sn)
}

func (s *Store) saveLocked(sn Snapshot) error {
	if sn.Name == "" {
		return errors.New("store: empty scenario name")
	}
	if sn.SavedAtUnixMS == 0 {
		sn.SavedAtUnixMS = time.Now().UnixMilli()
	}
	payload, err := json.Marshal(sn)
	if err != nil {
		return fmt.Errorf("store: encoding scenario %q: %w", sn.Name, err)
	}
	blob := encodeEnvelope(payload)
	dir := filepath.Join(s.dir, scenariosDir, dirFor(sn.Name))
	path := filepath.Join(dir, snapshotFile)
	if err := s.retry(func() error { return s.atomicWrite(dir, path, blob, sn.Name) }); err != nil {
		s.met.Counter("xr_store_save_errors_total").Inc()
		s.dirty[sn.Name] = sn
		s.updateGauges()
		return fmt.Errorf("store: saving scenario %q: %w", sn.Name, err)
	}
	sum := sha256.Sum256(blob)
	s.manifest[sn.Name] = &manifestEntry{
		Name:           sn.Name,
		Dir:            dirFor(sn.Name),
		SnapshotSHA256: hex.EncodeToString(sum[:]),
		Bytes:          int64(len(blob)),
		SavedAtUnixMS:  sn.SavedAtUnixMS,
	}
	delete(s.dirty, sn.Name)
	if err := s.writeManifestLocked(); err != nil {
		s.met.Counter("xr_store_save_errors_total").Inc()
		s.updateGauges()
		return fmt.Errorf("store: saving manifest after scenario %q: %w", sn.Name, err)
	}
	s.met.Counter("xr_store_saves_total").Inc()
	s.updateGauges()
	return nil
}

// Delete removes a scenario's persisted state. The snapshot directory
// goes first, the manifest entry second: a crash in between leaves a
// manifest entry whose snapshot is missing (reported on the next boot),
// never a deleted tenant resurrected from an orphan snapshot.
func (s *Store) Delete(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.dirty, name)
	entry, tracked := s.manifest[name]
	dir := dirFor(name)
	if tracked {
		dir = entry.Dir
	}
	if err := s.retry(func() error { return os.RemoveAll(filepath.Join(s.dir, scenariosDir, dir)) }); err != nil {
		s.met.Counter("xr_store_save_errors_total").Inc()
		return fmt.Errorf("store: deleting scenario %q: %w", name, err)
	}
	if !tracked {
		s.updateGauges()
		return nil
	}
	delete(s.manifest, name)
	if err := s.writeManifestLocked(); err != nil {
		s.met.Counter("xr_store_save_errors_total").Inc()
		s.updateGauges()
		return fmt.Errorf("store: saving manifest after deleting %q: %w", name, err)
	}
	s.updateGauges()
	return nil
}

// writeManifestLocked rewrites the manifest (entries sorted by name)
// through the same envelope + atomic-write protocol as snapshots. On
// success any pending manifest debt is cleared; on failure it is
// recorded for the background loop.
func (s *Store) writeManifestLocked() error {
	var mp manifestPayload
	for _, e := range s.manifest {
		mp.Entries = append(mp.Entries, *e)
	}
	sort.Slice(mp.Entries, func(i, j int) bool { return mp.Entries[i].Name < mp.Entries[j].Name })
	payload, err := json.Marshal(mp)
	if err != nil {
		return fmt.Errorf("encoding manifest: %w", err)
	}
	blob := encodeEnvelope(payload)
	path := filepath.Join(s.dir, manifestFile)
	if err := s.retry(func() error { return s.atomicWrite(s.dir, path, blob, "manifest") }); err != nil {
		s.manifestDirty = true
		return err
	}
	s.manifestDirty = false
	return nil
}

// retry runs op up to the configured attempt count with capped
// exponential backoff between tries.
func (s *Store) retry(op func() error) error {
	delay := s.base
	var err error
	for i := 0; i < s.attempts; i++ {
		if err = op(); err == nil {
			return nil
		}
		if i+1 < s.attempts {
			time.Sleep(delay)
			if delay *= 2; delay > s.cap {
				delay = s.cap
			}
		}
	}
	return err
}

// atomicWrite is the torn-write-proof protocol: write blob to a temp file
// next to the target, fsync it, rename over the final path, then fsync
// the directory so the rename itself is durable. The fault hook fires
// before each step; a hook error means that step (and everything after)
// never happened — exactly what a crash at that point leaves behind. The
// ErrShortWrite sentinel additionally leaves a truncated temp file, the
// torn-write case.
func (s *Store) atomicWrite(dir, path string, blob []byte, key string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + tmpSuffix
	if err := s.fault(SiteWrite, key); err != nil {
		if errors.Is(err, ErrShortWrite) {
			_ = os.WriteFile(tmp, blob[:len(blob)/2], 0o644)
		}
		return err
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(blob); err != nil {
		f.Close()
		return err
	}
	if err := s.fault(SiteSync, key); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := s.fault(SiteRename, key); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	if err := s.fault(SiteSync, key+"/dir"); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a completed rename survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ---------------------------------------------------------------------------
// Background re-persist.

func (s *Store) repersistLoop(interval time.Duration) {
	defer close(s.done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.flushDirty()
		}
	}
}

// flushDirty retries every deferred save (and a pending manifest rewrite)
// once; failures stay dirty for the next tick.
func (s *Store) flushDirty() {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.dirty))
	for n := range s.dirty {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sn := s.dirty[n]
		if err := s.saveLocked(sn); err != nil {
			s.log.Warn("deferred scenario save still failing", "scenario", n, "error", err.Error())
		} else {
			s.log.Info("deferred scenario save persisted", "scenario", n)
		}
	}
	if s.manifestDirty {
		if err := s.writeManifestLocked(); err != nil {
			s.log.Warn("deferred manifest save still failing", "error", err.Error())
		} else {
			s.log.Info("deferred manifest save persisted")
		}
	}
	s.updateGauges()
}

// ---------------------------------------------------------------------------
// Recovery.

// Recover replays the manifest against the on-disk state: stray temp
// files are discarded, every snapshot's checksum is re-verified, orphan
// snapshots (present on disk, absent from the manifest) are adopted with
// a WARN, and every damaged or conflicting artifact is quarantined. The
// manifest is then rewritten to the surviving set. Recover never fails on
// data damage — the returned error covers only an unusable directory
// (e.g. the scenarios/ tree cannot be listed).
func (s *Store) Recover() (*RecoveryReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep := &RecoveryReport{}
	s.removeStrayTmp()
	s.pruneQuarantineLocked(s.retention)

	man := s.readManifestLocked(rep)

	// Pass 1: manifest entries, in manifest order. First entry wins a
	// duplicated name; later claims are quarantined.
	claimed := make(map[string]bool) // scenario dirs owned by a recovered entry
	for i := range man.Entries {
		e := man.Entries[i]
		if _, dup := s.manifest[e.Name]; dup {
			// First entry won the name. Move the loser's directory aside
			// only when it is a different one — quarantining the path the
			// winner claimed would destroy the recovered tenant.
			src := s.scenarioDirPath(e.Dir)
			if claimed[e.Dir] {
				src = ""
			}
			s.quarantineLocked(rep, e.Name, src, "duplicate manifest entry for tenant name")
			continue
		}
		path := filepath.Join(s.scenarioDirPath(e.Dir), snapshotFile)
		sn, blob, err := s.readSnapshot(path, e.Name)
		switch {
		case err != nil && os.IsNotExist(err):
			s.quarantineLocked(rep, e.Name, "", "manifest references a missing snapshot")
			_ = os.RemoveAll(s.scenarioDirPath(e.Dir)) // drop any empty husk
			continue
		case err != nil:
			s.quarantineLocked(rep, e.Name, s.scenarioDirPath(e.Dir), fmt.Sprintf("snapshot verification failed: %v", err))
			continue
		case sn.Name != e.Name:
			s.quarantineLocked(rep, e.Name, s.scenarioDirPath(e.Dir), fmt.Sprintf("snapshot carries tenant %q, manifest expected %q", sn.Name, e.Name))
			continue
		}
		sum := sha256.Sum256(blob)
		if got := hex.EncodeToString(sum[:]); got != e.SnapshotSHA256 {
			// The envelope checksum already proved the file internally
			// consistent; a manifest digest mismatch means the manifest is
			// stale (e.g. a crash between snapshot rename and manifest
			// write on a re-save). The snapshot is the newer truth.
			s.log.Warn("snapshot digest differs from manifest; adopting the snapshot",
				"scenario", e.Name, "manifest_sha256", e.SnapshotSHA256, "snapshot_sha256", got)
			e.SnapshotSHA256 = got
			e.Bytes = int64(len(blob))
			e.SavedAtUnixMS = sn.SavedAtUnixMS
		}
		entry := e
		s.manifest[e.Name] = &entry
		claimed[e.Dir] = true
		rep.Recovered = append(rep.Recovered, *sn)
		s.met.Counter("xr_store_recoveries_total").Inc()
	}

	// Pass 2: orphan scenario directories (on disk, not claimed by the
	// manifest). Valid ones are adopted; damage is quarantined.
	dirs, err := os.ReadDir(filepath.Join(s.dir, scenariosDir))
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", filepath.Join(s.dir, scenariosDir), err)
	}
	for _, d := range dirs {
		if !d.IsDir() || claimed[d.Name()] {
			continue
		}
		dirPath := s.scenarioDirPath(d.Name())
		path := filepath.Join(dirPath, snapshotFile)
		sn, blob, err := s.readSnapshot(path, d.Name())
		switch {
		case err != nil && os.IsNotExist(err):
			_ = os.RemoveAll(dirPath) // empty husk (e.g. interrupted delete)
			continue
		case err != nil:
			s.quarantineLocked(rep, "", dirPath, fmt.Sprintf("orphan snapshot verification failed: %v", err))
			continue
		}
		if _, taken := s.manifest[sn.Name]; taken {
			s.quarantineLocked(rep, sn.Name, dirPath, "orphan snapshot duplicates a recovered tenant name")
			continue
		}
		sum := sha256.Sum256(blob)
		s.manifest[sn.Name] = &manifestEntry{
			Name:           sn.Name,
			Dir:            d.Name(),
			SnapshotSHA256: hex.EncodeToString(sum[:]),
			Bytes:          int64(len(blob)),
			SavedAtUnixMS:  sn.SavedAtUnixMS,
		}
		rep.Recovered = append(rep.Recovered, *sn)
		rep.Adopted = append(rep.Adopted, sn.Name)
		s.met.Counter("xr_store_recoveries_total").Inc()
		s.log.Warn("adopted orphan snapshot absent from manifest", "scenario", sn.Name, "dir", d.Name())
	}

	// Converge the manifest to the surviving set; a failure here is debt
	// for the background loop, not a boot failure.
	if err := s.writeManifestLocked(); err != nil {
		s.log.Warn("rewriting manifest after recovery failed; deferred", "error", err.Error())
	}
	s.updateGauges()
	return rep, nil
}

// readManifestLocked loads the manifest, quarantining a damaged one (the
// orphan-adoption pass then rebuilds state from the snapshots themselves).
func (s *Store) readManifestLocked(rep *RecoveryReport) manifestPayload {
	var mp manifestPayload
	path := filepath.Join(s.dir, manifestFile)
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return mp
	}
	if err := s.fault(SiteRead, "manifest"); err != nil {
		s.quarantineLocked(rep, "", path, fmt.Sprintf("manifest unreadable: %v", err))
		return manifestPayload{}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		s.quarantineLocked(rep, "", path, fmt.Sprintf("manifest unreadable: %v", err))
		return manifestPayload{}
	}
	payload, err := decodeEnvelope(data)
	if err == nil {
		err = json.Unmarshal(payload, &mp)
	}
	if err != nil {
		s.quarantineLocked(rep, "", path, fmt.Sprintf("manifest verification failed: %v", err))
		return manifestPayload{}
	}
	return mp
}

// readSnapshot reads and fully verifies one snapshot file: fault hook,
// envelope (magic, version, length, checksum), then JSON decode.
func (s *Store) readSnapshot(path, key string) (*Snapshot, []byte, error) {
	if err := s.fault(SiteRead, key); err != nil {
		return nil, nil, fmt.Errorf("%w: injected read fault: %v", ErrCorrupt, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	payload, err := decodeEnvelope(data)
	if err != nil {
		return nil, nil, err
	}
	var sn Snapshot
	if err := json.Unmarshal(payload, &sn); err != nil {
		return nil, nil, fmt.Errorf("%w: payload is not valid JSON: %v", ErrCorrupt, err)
	}
	return &sn, data, nil
}

// Quarantine sets aside a tracked scenario whose snapshot is damaged at a
// level the store cannot see (the server calls this when a recovered
// snapshot fails to rebuild through the registry). The snapshot moves to
// quarantine/, the manifest drops the entry, and the record is reported.
func (s *Store) Quarantine(name string, reason error) QuarantineRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.dirty, name)
	dir := dirFor(name)
	if e, ok := s.manifest[name]; ok {
		dir = e.Dir
	}
	rep := &RecoveryReport{}
	s.quarantineLocked(rep, name, s.scenarioDirPath(dir), reason.Error())
	delete(s.manifest, name)
	if err := s.writeManifestLocked(); err != nil {
		s.log.Warn("rewriting manifest after quarantine failed; deferred", "error", err.Error())
	}
	s.updateGauges()
	return rep.Quarantined[0]
}

// quarantineLocked moves src (a file or directory; "" for nothing on
// disk) into quarantine/ under a name suffixed with a fresh request-style
// ID, records it, and logs at ERROR.
func (s *Store) quarantineLocked(rep *RecoveryReport, name, src, reason string) {
	rec := QuarantineRecord{ID: telemetry.NewRequestID(), Name: name, Reason: reason}
	if src != "" {
		dest := filepath.Join(s.dir, quarantineDir, filepath.Base(src)+"-"+rec.ID)
		if err := os.Rename(src, dest); err != nil && !os.IsNotExist(err) {
			// Renaming within one filesystem should not fail; if it does,
			// remove the artifact so the damage cannot re-trip every boot.
			s.log.Warn("quarantine rename failed; removing artifact", "src", src, "error", err.Error())
			_ = os.RemoveAll(src)
		} else if err == nil {
			if rel, rerr := filepath.Rel(s.dir, dest); rerr == nil {
				rec.Path = rel
			} else {
				rec.Path = dest
			}
		}
	}
	s.quarantined = append(s.quarantined, rec)
	s.met.Counter("xr_store_quarantines_total").Inc()
	s.log.Error("scenario quarantined",
		"request_id", rec.ID, "scenario", name, "path", rec.Path, "reason", reason)
	rep.Quarantined = append(rep.Quarantined, rec)
}

// removeStrayTmp discards temp files left by interrupted writes; they
// were never renamed into place, so they carry no committed state.
func (s *Store) removeStrayTmp() {
	drop := func(dir string) {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return
		}
		for _, e := range entries {
			if !e.IsDir() && strings.HasSuffix(e.Name(), tmpSuffix) {
				_ = os.Remove(filepath.Join(dir, e.Name()))
			}
		}
	}
	drop(s.dir)
	dirs, err := os.ReadDir(filepath.Join(s.dir, scenariosDir))
	if err != nil {
		return
	}
	for _, d := range dirs {
		if d.IsDir() {
			drop(s.scenarioDirPath(d.Name()))
		}
	}
}

// ---------------------------------------------------------------------------
// Status.

// Status reports the store's current state (sorted by scenario name).
func (s *Store) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Status{
		DataDir:     s.dir,
		Persisted:   len(s.manifest),
		Dirty:       len(s.dirty),
		Quarantined: len(s.quarantined),
		Quarantine:  append([]QuarantineRecord(nil), s.quarantined...),
	}
	for name, e := range s.manifest {
		_, dirty := s.dirty[name]
		st.Scenarios = append(st.Scenarios, EntryStatus{
			Name:          name,
			Bytes:         e.Bytes,
			SHA256:        e.SnapshotSHA256,
			SavedAtUnixMS: e.SavedAtUnixMS,
			Dirty:         dirty,
		})
	}
	for name := range s.dirty {
		if _, tracked := s.manifest[name]; !tracked {
			st.Scenarios = append(st.Scenarios, EntryStatus{Name: name, Dirty: true})
		}
	}
	sort.Slice(st.Scenarios, func(i, j int) bool { return st.Scenarios[i].Name < st.Scenarios[j].Name })
	return st
}

func (s *Store) updateGauges() {
	s.met.Gauge("xr_store_persisted").Set(int64(len(s.manifest)))
	s.met.Gauge("xr_store_dirty").Set(int64(len(s.dirty)))
	s.met.Gauge("xr_store_quarantined").Set(int64(len(s.quarantined)))
}

func (s *Store) scenarioDirPath(dir string) string {
	return filepath.Join(s.dir, scenariosDir, dir)
}

// ---------------------------------------------------------------------------
// Helpers.

// dirFor maps a tenant name to its directory under scenarios/: the name
// itself when it is short and filesystem-safe, else a hashed form. The
// manifest records the mapping, so recovery never re-derives it.
func dirFor(name string) string {
	if name == "." || name == ".." || !telemetry.SafeToken(name) {
		return hashedDir(name)
	}
	return name
}

func hashedDir(name string) string {
	sum := sha256.Sum256([]byte(name))
	return "h-" + hex.EncodeToString(sum[:8])
}
