package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one benchmark-side call around a layer boundary. Spans of one
// notification share its ID as Trace (the program's trace ID is the
// notification ID too); a READ, hello or close carries its operation's ID,
// which the read spans of the notifications it returned name as Parent.
type span struct {
	Trace   string    `json:"trace"`
	Parent  string    `json:"parent,omitempty"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	End     time.Time `json:"end"`
	Worker  int       `json:"worker"`
	Session int       `json:"session,omitempty"`
	N       int       `json:"n,omitempty"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			_ = f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
