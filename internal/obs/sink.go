package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// DefaultSinkMaxBytes is the rotation threshold when none is configured.
const DefaultSinkMaxBytes = 64 << 20

// sinkQueueDepth bounds records waiting for the writer goroutine; beyond it
// Write drops (with a counter) rather than blocking the caller.
const sinkQueueDepth = 1024

// Sink is the one persistent JSONL writer: append-only records of any type,
// size-based rotation (path → path.1, one generation kept), written by a
// single background goroutine fed through a bounded channel. Write never
// waits for the disk: when the writer falls behind, records are dropped and
// counted. Every Write ends up in exactly one of the two counters — records
// or dropped — including writes that race or follow Close. A nil *Sink is a
// no-op on every method, so a disabled sink costs one nil check per record.
type Sink[T any] struct {
	path     string
	maxBytes int64

	// mu orders Write against Close: writers share it, Close takes it
	// exclusively to flip closed and close ch, so no Write is ever mid-send
	// on a closed channel.
	mu     sync.RWMutex
	closed bool
	ch     chan T
	done   chan struct{}

	records   atomic.Int64
	dropped   atomic.Int64
	rotations atomic.Int64
	closeErr  error
}

// NewSink opens (appending) or creates the file and starts the writer.
// maxBytes ≤ 0 selects DefaultSinkMaxBytes.
func NewSink[T any](path string, maxBytes int64) (*Sink[T], error) {
	return newSink[T](path, maxBytes, sinkQueueDepth)
}

// newSink exists so tests can shrink the queue to force drops.
func newSink[T any](path string, maxBytes int64, depth int) (*Sink[T], error) {
	if maxBytes <= 0 {
		maxBytes = DefaultSinkMaxBytes
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: sink: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("obs: sink: %w", err)
	}
	s := &Sink[T]{
		path:     path,
		maxBytes: maxBytes,
		ch:       make(chan T, depth),
		done:     make(chan struct{}),
	}
	go s.run(f, st.Size())
	return s, nil
}

// Path is the file location.
func (s *Sink[T]) Path() string {
	if s == nil {
		return ""
	}
	return s.path
}

// Write enqueues one record. If the writer is behind or the sink is closed,
// the record is dropped and counted. Nil-safe.
func (s *Sink[T]) Write(rec T) {
	if s == nil {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		s.dropped.Add(1)
		return
	}
	select {
	case s.ch <- rec:
	default:
		s.dropped.Add(1)
	}
}

// run is the writer goroutine: one JSON line per record, rotating when the
// file would exceed maxBytes. Lines are written unbuffered so a live tail
// (or a replay right after traffic) sees records without waiting for Close.
func (s *Sink[T]) run(f *os.File, size int64) {
	defer close(s.done)
	for rec := range s.ch {
		line, err := json.Marshal(rec)
		if err != nil {
			s.dropped.Add(1)
			continue
		}
		line = append(line, '\n')
		if size > 0 && size+int64(len(line)) > s.maxBytes {
			f.Close()
			if err := os.Rename(s.path, s.path+".1"); err == nil {
				s.rotations.Add(1)
			}
			nf, err := os.OpenFile(s.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
			if err != nil {
				// Unwritable file: drop everything still queued.
				s.dropped.Add(1)
				for range s.ch {
					s.dropped.Add(1)
				}
				return
			}
			f, size = nf, 0
		}
		if _, err := f.Write(line); err != nil {
			s.dropped.Add(1)
			continue
		}
		size += int64(len(line))
		s.records.Add(1)
	}
	s.closeErr = f.Close()
}

// Close stops accepting records, drains the queue to disk and closes the
// file. Nil-safe and idempotent.
func (s *Sink[T]) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
	s.mu.Unlock()
	<-s.done
	return s.closeErr
}

// Stats reports (records written, records dropped, rotations).
func (s *Sink[T]) Stats() (records, dropped, rotations int64) {
	if s == nil {
		return 0, 0, 0
	}
	return s.records.Load(), s.dropped.Load(), s.rotations.Load()
}
