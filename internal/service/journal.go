package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"hira/internal/fault"
)

// journalEntry is one live (queued or running) job as persisted in the
// journal: everything a restarted server needs to re-validate and
// re-enqueue it. Terminal jobs have no entry — removal is the terminal
// record.
type journalEntry struct {
	ID        string    `json:"id"`
	Spec      JobSpec   `json:"spec"`
	Submitted time.Time `json:"submitted"`
}

// journal is the server's durable record of live jobs: a JSON-lines file
// holding one entry per queued or running job, rewritten atomically
// (temp file + rename, the same crash-safety idiom as the result store)
// on every change. A crash at any instant leaves either the previous or
// the new file — never a torn one — so restart recovery re-enqueues
// exactly the jobs that had been accepted but not finished.
//
// A snapshot-rewrite journal is deliberately not an append-only WAL: the
// live set is bounded by the queue depth plus the worker count, so each
// rewrite is a few KB, there is no compaction problem, and replay is
// "read the file", not "fold a log". Write failures never fail the job —
// they are recorded in lastErr (surfaced via /readyz) and the server
// carries on with whatever durability the last successful rewrite gave.
type journal struct {
	path string
	fs   fault.FS

	mu    sync.Mutex
	live  map[string]journalEntry
	order []string // insertion order, for stable files and FIFO recovery
	// ended holds IDs removed before they were added: a submission
	// journals its job only after enqueueing it (so no journal I/O runs
	// under the server's lock), and a fast job can finish in between.
	// The late add then finds its ID here and is dropped instead of
	// leaving a finished job to re-run as recovered after a restart.
	ended   map[string]bool
	lastErr error // most recent rewrite failure, nil after a success
}

// openJournal opens (creating if needed) the journal at path and returns
// the entries a previous process left behind, in submission order. The
// returned journal starts empty — recovery decides which entries live on
// (re-add) and which are dropped (not re-added). Corrupt lines — a torn
// write from a pre-atomic-rename era, stray editing — are skipped, not
// fatal: losing one job's record must not take down recovery of the
// rest. The error is non-nil only when the journal cannot be written at
// all, in which case the server runs journal-less (and /readyz says so).
func openJournal(path string, fsys fault.FS) (*journal, []journalEntry, error) {
	if fsys == nil {
		fsys = fault.OS
	}
	j := &journal{path: path, fs: fsys, live: make(map[string]journalEntry), ended: make(map[string]bool)}
	var recovered []journalEntry
	if data, err := os.ReadFile(path); err == nil {
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
		seen := make(map[string]bool)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var e journalEntry
			if json.Unmarshal(line, &e) != nil || e.ID == "" || seen[e.ID] {
				continue
			}
			seen[e.ID] = true
			recovered = append(recovered, e)
		}
	}
	// Prove the journal is writable now, not at the first submission:
	// /readyz reports "journal open" and a server that cannot journal
	// should know before it accepts work.
	if err := j.rewriteLocked(); err != nil {
		return nil, recovered, fmt.Errorf("journal %s unwritable: %w", path, err)
	}
	return j, recovered, nil
}

// add records a live job. The write failure, if any, is returned and
// remembered; callers treat it as degradation (the job still runs), not
// as a submission error. Adding a job whose removal already arrived is
// a no-op (and no rewrite): the job is not live any more.
func (j *journal) add(e journalEntry) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.ended[e.ID] {
		delete(j.ended, e.ID)
		return nil
	}
	if _, ok := j.live[e.ID]; !ok {
		j.order = append(j.order, e.ID)
	}
	j.live[e.ID] = e
	return j.rewriteLocked()
}

// remove drops a job's entry — the journal's terminal record. Removing
// an absent ID writes nothing; it only marks the ID ended, so the job's
// add, if it is still on its way, is dropped.
func (j *journal) remove(id string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.live[id]; !ok {
		j.ended[id] = true
		return nil
	}
	delete(j.live, id)
	for i, oid := range j.order {
		if oid == id {
			j.order = append(j.order[:i], j.order[i+1:]...)
			break
		}
	}
	return j.rewriteLocked()
}

// rewriteLocked persists the live set atomically. Callers hold j.mu.
func (j *journal) rewriteLocked() error {
	var buf bytes.Buffer
	for _, id := range j.order {
		line, err := json.Marshal(j.live[id])
		if err != nil {
			j.lastErr = fmt.Errorf("journal: marshal %s: %w", id, err)
			return j.lastErr
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := j.fs.WriteFileAtomic(fault.SiteJournalWrite, j.path, buf.Bytes()); err != nil {
		j.lastErr = fmt.Errorf("journal: %w", err)
		return j.lastErr
	}
	j.lastErr = nil
	return nil
}

// healthy reports whether the last journal write succeeded; the reason
// feeds /readyz.
func (j *journal) healthy() (string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.lastErr != nil {
		return j.lastErr.Error(), false
	}
	return "", true
}
