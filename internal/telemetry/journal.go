package telemetry

import "sync"

// Journal is a bounded ring of recently published events kept for
// postmortem correlation. Subscribers see only what arrives while they
// are connected; the journal remembers the last N so a flight recorder
// can reconstruct "what else was happening" around a failing request
// after the fact. Every Bus keeps one (Bus.Journal). A nil *Journal is a
// valid no-op.
//
//delprop:nilsafe
type Journal struct {
	mu   sync.Mutex
	ring Ring[Event] //delprop:guardedby mu
}

// DefaultJournalCapacity bounds the journal when the caller passes <= 0.
const DefaultJournalCapacity = 2048

// NewJournal returns a journal retaining the most recent capacity events
// (DefaultJournalCapacity when capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{ring: NewRing[Event](capacity)}
}

// Append records one (already stamped) event, evicting the oldest when
// full.
func (j *Journal) Append(ev Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.ring.Push(ev)
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ring.Len()
}

// ByRequest returns the retained events stamped with the given request
// id, oldest first.
func (j *Journal) ByRequest(requestID string) []Event {
	if j == nil || requestID == "" {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for i := 0; i < j.ring.Len(); i++ {
		if ev := j.ring.At(i); ev.RequestID == requestID {
			out = append(out, ev)
		}
	}
	return out
}

// Recent returns up to limit of the newest retained events, oldest
// first. limit <= 0 returns everything.
func (j *Journal) Recent(limit int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := j.ring.Len()
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]Event, 0, n)
	for i := j.ring.Len() - n; i < j.ring.Len(); i++ {
		out = append(out, j.ring.At(i))
	}
	return out
}
