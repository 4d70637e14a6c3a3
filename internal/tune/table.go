package tune

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// TableVersion is the current tuning-table schema version. Bump it
// whenever the entry semantics change; Load rejects every other
// version, because silently applying stale knobs is worse than running
// the defaults.
const TableVersion = 1

// Typed load failures, distinguishable with errors.Is.
var (
	// ErrVersion: the table was produced under a different schema.
	ErrVersion = errors.New("tune: tuning-table version mismatch")

	// ErrCorrupt: the file is not a tuning table, or its content does
	// not match its recorded digest.
	ErrCorrupt = errors.New("tune: corrupted tuning table")
)

// Table is a persisted tuning table: the searched space, the seed the
// search ran under, and one Entry per key. Digest covers everything
// else, so bit rot (or a hand edit) is detected at load time.
type Table struct {
	Version int              `json:"version"`
	Seed    uint64           `json:"seed"`
	Space   string           `json:"space"`
	Digest  string           `json:"digest"`
	Entries map[string]Entry `json:"entries"`
}

// digest hashes the canonical encoding of everything but the Digest
// field itself (encoding/json emits map keys sorted, so the encoding —
// and the hash — is deterministic).
func (t *Table) digest() string {
	shadow := struct {
		Version int              `json:"version"`
		Seed    uint64           `json:"seed"`
		Space   string           `json:"space"`
		Entries map[string]Entry `json:"entries"`
	}{t.Version, t.Seed, t.Space, t.Entries}
	raw, err := json.Marshal(shadow)
	if err != nil {
		panic(fmt.Sprintf("tune: table not marshalable: %v", err))
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// Seal stamps the content digest; Save does it automatically.
func (t *Table) Seal() { t.Digest = t.digest() }

// Lookup returns the entry for k.
func (t *Table) Lookup(k Key) (Entry, bool) {
	e, ok := t.Entries[k.String()]
	return e, ok
}

// Save seals and writes the table as indented JSON.
func (t *Table) Save(path string) error {
	t.Seal()
	raw, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Parse decodes and validates a tuning table: schema version first
// (ErrVersion), then the content digest (ErrCorrupt), so a version skew
// is reported as what it is even though the digest differs too.
func Parse(raw []byte) (*Table, error) {
	var t Table
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if t.Version != TableVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersion, t.Version, TableVersion)
	}
	if t.Entries == nil {
		return nil, fmt.Errorf("%w: no entries", ErrCorrupt)
	}
	if got := t.digest(); got != t.Digest {
		return nil, fmt.Errorf("%w: content digest %.12s does not match recorded %.12s", ErrCorrupt, got, t.Digest)
	}
	return &t, nil
}

// Load reads and validates a tuning table from disk.
func Load(path string) (*Table, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Parse(raw)
}
