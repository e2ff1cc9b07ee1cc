package wire

import (
	"bytes"
	"errors"
	"net"
	"testing"
)

// pipeReader returns a lineReader on one end of an in-memory pipe and
// writes data into the other end from a goroutine. The cleanup closes
// both ends, which unblocks a writer the reader stopped draining.
func pipeReader(t *testing.T, data ...[]byte) *lineReader {
	t.Helper()
	rc, wc := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, d := range data {
			if _, err := wc.Write(d); err != nil {
				return
			}
		}
		_ = wc.Close()
	}()
	t.Cleanup(func() {
		_ = rc.Close()
		_ = wc.Close()
		<-done
	})
	r := newLineReader(rc)
	if len(r.buf) != initialReadBufferBytes {
		t.Fatalf("reader starts with %d bytes, want %d", len(r.buf), initialReadBufferBytes)
	}
	return r
}

// TestLineReaderFrameBound: starting from the small initial buffer, a
// frame of exactly maxFrameBytes still decodes and one byte more fails.
func TestLineReaderFrameBound(t *testing.T) {
	frame := func(n int) []byte { return append(bytes.Repeat([]byte{'x'}, n), '\n') }
	r := pipeReader(t, frame(maxFrameBytes), frame(maxFrameBytes+1))
	line, err := r.next()
	if err != nil {
		t.Fatalf("frame of maxFrameBytes: %v", err)
	}
	if len(line) != maxFrameBytes {
		t.Fatalf("frame of maxFrameBytes came back with %d bytes", len(line))
	}
	if _, err := r.next(); !errors.Is(err, errFrameTooLong) {
		t.Fatalf("frame of maxFrameBytes+1: got %v, want errFrameTooLong", err)
	}
}

// TestLineReaderBurstGrowthCapped: a burst of small frames in one write
// keeps every read full, so the buffer doubles — but only up to
// readBufferBytes, however long the burst.
func TestLineReaderBurstGrowthCapped(t *testing.T) {
	const frames = 20000
	one := append(bytes.Repeat([]byte{'y'}, 99), '\n')
	r := pipeReader(t, bytes.Repeat(one, frames))
	for i := 0; i < frames; i++ {
		line, err := r.next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(line) != len(one)-1 {
			t.Fatalf("frame %d has %d bytes", i, len(line))
		}
		if len(r.buf) > readBufferBytes {
			t.Fatalf("buffer grew to %d bytes on small frames, cap %d", len(r.buf), readBufferBytes)
		}
	}
	if len(r.buf) != readBufferBytes {
		t.Fatalf("a %d-byte burst left the buffer at %d bytes, want it grown to %d",
			frames*len(one), len(r.buf), readBufferBytes)
	}
}
