package rsonpath

import (
	"context"
	"errors"
	"io"

	"rsonpath/internal/input"
)

// ErrStreamingUnsupported is returned by the RunReader family for engines
// that need the whole document in memory. Only EngineDOM is affected: it
// builds a tree of the complete document, so bounded-memory streaming is
// impossible by construction.
var ErrStreamingUnsupported = errors.New("rsonpath: engine requires an in-memory document (EngineDOM cannot stream)")

// DefaultStreamWindow is the buffered window used by RunReader when
// WithStreamWindow is not given.
const DefaultStreamWindow = input.DefaultWindow

// WithStreamWindow sets the buffered window size, in bytes, used by the
// RunReader family: the engine's memory stays bounded by (a small multiple
// of) the window however large the document. The window must cover every
// single document feature the query needs to transport — an object key, a
// whitespace run, a matched value being extracted; a feature larger than
// the window aborts the run with *input.Error rather than mis-scanning.
// Values ≤ 0 select DefaultStreamWindow.
func WithStreamWindow(n int) Option {
	return func(c *config) { c.window = n }
}

// inputRunner is the streaming surface of the engines: every engine except
// the DOM oracle evaluates directly over an input.Input.
type inputRunner interface {
	RunInput(in input.Input, emit func(pos int)) error
}

// RunReader streams a single document of arbitrary size from r, calling
// emit with the byte offset of the first character of every matched value,
// in document order. Memory is bounded by the configured stream window
// (WithStreamWindow) regardless of document size. Supported by every
// engine except EngineDOM, which returns ErrStreamingUnsupported.
//
// Malformed input surfaces as *MalformedError, a configured limit being hit
// as *LimitError, and an internal fault as *InternalError (never a panic).
func (q *Query) RunReader(r io.Reader, emit func(pos int)) error {
	sr, ok := q.run.(inputRunner)
	if !ok {
		return ErrStreamingUnsupported
	}
	if q.sup.timeout > 0 {
		// The watchdog deadline needs the cancellation plumbing.
		return q.RunReaderContext(context.Background(), r, emit)
	}
	in := input.NewBuffered(r, q.window)
	defer in.Release()
	if q.limits.maxDocBytes > 0 {
		in.LimitDocBytes(q.limits.maxDocBytes)
	}
	return guardRun(q.kind.String(), func() error {
		return sr.RunInput(in, q.limits.limitEmit(emit))
	})
}

// RunReaderValues streams a single document from r, calling visit with the
// byte offset and the raw bytes of every matched value. The value slice
// aliases the stream's window and is valid only during the visit call; a
// matched value larger than the window's capacity aborts the run with
// *input.Error. Engines that cannot stream return ErrStreamingUnsupported.
// As in MatchValues, a value that does not end well-formed abandons the
// run with a *MalformedError at the offset where the value's scan stopped.
func (q *Query) RunReaderValues(r io.Reader, visit func(pos int, value []byte)) error {
	sr, ok := q.run.(inputRunner)
	if !ok {
		return ErrStreamingUnsupported
	}
	in := input.NewBuffered(r, q.window)
	defer in.Release()
	if q.limits.maxDocBytes > 0 {
		in.LimitDocBytes(q.limits.maxDocBytes)
	}
	var extractErr error
	runErr := guardRun(q.kind.String(), func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopRun); !ok {
					panic(r)
				}
			}
		}()
		return sr.RunInput(in, q.limits.limitEmit(func(pos int) {
			v, err := valueBytesAt(in, pos)
			if err != nil {
				extractErr = err
				panic(stopRun{})
			}
			visit(pos, v)
		}))
	})
	if extractErr != nil {
		return extractErr
	}
	return runErr
}

// valueBytesAt delimits the complete JSON value starting at pos and returns
// it as one window-backed slice. The scan is a scalar chunked walk over
// Bytes — deliberately not a classifier pass: a second classification
// stream would contend with the engine's own stream for the input's block
// scratch, while Bytes reads leave the engine's current block untouched.
// Like the depth classifier it counts both bracket kinds, and like ValueAt
// it reports a value that does not end well-formed as a *MalformedError.
func valueBytesAt(in input.Input, pos int) ([]byte, error) {
	c, ok := in.ByteAt(pos)
	if !ok {
		return nil, unterminatedValue(in.Len())
	}
	switch c {
	case '{', '[':
		closer := byte('}')
		if c == '[' {
			closer = ']'
		}
		depth := 0
		inStr, esc := false, false
		i := pos
		for {
			chunk := in.Bytes(i, i+input.BlockSize)
			if len(chunk) == 0 {
				return nil, unterminatedValue(in.Len())
			}
			for j, b := range chunk {
				switch {
				case inStr:
					switch {
					case esc:
						esc = false
					case b == '\\':
						esc = true
					case b == '"':
						inStr = false
					}
				case b == '"':
					inStr = true
				case b == '{' || b == '[':
					depth++
				case b == '}' || b == ']':
					if depth--; depth == 0 {
						if b != closer {
							return nil, mismatchedCloser(i + j)
						}
						return in.Bytes(pos, i+j+1), nil
					}
				}
			}
			i += len(chunk)
		}
	case '"':
		esc := false
		i := pos + 1
		for {
			chunk := in.Bytes(i, i+input.BlockSize)
			if len(chunk) == 0 {
				return nil, unterminatedValue(in.Len())
			}
			for j, b := range chunk {
				switch {
				case esc:
					esc = false
				case b == '\\':
					esc = true
				case b == '"':
					return in.Bytes(pos, i+j+1), nil
				}
			}
			i += len(chunk)
		}
	default:
		i := pos
		for {
			chunk := in.Bytes(i, i+input.BlockSize)
			if len(chunk) == 0 {
				return in.Bytes(pos, i), nil
			}
			for j, b := range chunk {
				switch b {
				case ',', '}', ']', ' ', '\t', '\n', '\r':
					return in.Bytes(pos, i+j), nil
				}
			}
			i += len(chunk)
		}
	}
}

// RunReader streams a single document from r through the set's shared
// classification pass, calling emit with the query index and the byte
// offset of every matched value. Memory is bounded by the configured
// stream window regardless of document size.
func (s *QuerySet) RunReader(r io.Reader, emit func(query, pos int)) error {
	if s.sup.timeout > 0 {
		return s.RunReaderContext(context.Background(), r, emit)
	}
	in := input.NewBuffered(r, s.window)
	defer in.Release()
	if s.limits.maxDocBytes > 0 {
		in.LimitDocBytes(s.limits.maxDocBytes)
	}
	return guardRun("queryset", func() error {
		return s.set.RunInput(in, s.limits.limitEmit2(emit))
	})
}
