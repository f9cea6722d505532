package service

import (
	"bytes"
	"encoding/base64"
	"unicode/utf8"

	"repro/internal/dataset"
)

// scanCanonical decodes a POST /v1/batch body written in exactly the
// form EncodeBatch emits, json.Marshal of a wireBatch: every key present
// once and in struct-field order, no whitespace inside the value, and
// every string plain (no escape, no control byte, valid UTF-8). It
// returns the batch and the offset just past its closing brace.
//
// It gives up (ok false) on any other body: a key out of order, missing,
// repeated, unknown or differently cased, whitespace inside the value, a
// string that needs unescaping, a non-string field, a time or raw value
// that does not decode. The caller then decodes the body with
// encoding/json, which decides what is accepted. So the scanner only has
// to agree with encoding/json on the bodies it accepts, and on those it
// calls what encoding/json calls: time.Time.UnmarshalJSON on the quoted
// time, and base64.StdEncoding.Decode on the raw string into a buffer of
// DecodedLen bytes ("raw":null stays a nil Raw, "raw":"" an empty one).
func scanCanonical(body []byte) (source string, records []dataset.Record, end int, ok bool) {
	s := canonicalScanner{b: body}
	s.lit(`{"source":`)
	source = s.str()
	s.lit(`,"records":[`)
	for !s.bad {
		var r dataset.Record
		s.lit(`{"device_id":`)
		r.DeviceID = s.str()
		s.lit(`,"vendor":`)
		r.Vendor = s.str()
		s.lit(`,"model":`)
		r.Model = s.str()
		s.lit(`,"type":`)
		r.Type = s.str()
		s.lit(`,"user":`)
		r.User = s.str()
		s.lit(`,"time":`)
		if q := s.quoted(); !s.bad && r.Time.UnmarshalJSON(q) != nil {
			s.bad = true
		}
		s.lit(`,"sni":`)
		r.SNI = s.str()
		s.lit(`,"stack_id":`)
		r.StackID = s.str()
		s.lit(`,"raw":`)
		r.Raw = s.raw()
		s.lit(`}`)
		records = append(records, r)
		if s.next(']') {
			break
		}
		s.lit(`,`)
	}
	s.lit(`}`)
	if s.bad {
		return "", nil, 0, false
	}
	return source, records, s.i, true
}

// canonicalScanner walks a body left to right. A mismatch sets bad,
// after which every method is a no-op, so scanCanonical checks once.
type canonicalScanner struct {
	b   []byte
	i   int
	bad bool
}

// lit consumes the literal text t.
func (s *canonicalScanner) lit(t string) {
	if s.bad || len(s.b)-s.i < len(t) || string(s.b[s.i:s.i+len(t)]) != t {
		s.bad = true
		return
	}
	s.i += len(t)
}

// next consumes c if it is the next byte.
func (s *canonicalScanner) next(c byte) bool {
	if s.bad || s.i >= len(s.b) || s.b[s.i] != c {
		return false
	}
	s.i++
	return true
}

// span consumes the text from a quote to the next quote and returns it
// with both quotes. It is a plain JSON string only if it holds no
// escape, no control byte and no invalid UTF-8; quoted checks that.
func (s *canonicalScanner) span() []byte {
	if s.bad || s.i >= len(s.b) || s.b[s.i] != '"' {
		s.bad = true
		return nil
	}
	n := bytes.IndexByte(s.b[s.i+1:], '"')
	if n < 0 {
		s.bad = true
		return nil
	}
	q := s.b[s.i : s.i+n+2]
	s.i += n + 2
	return q
}

// quoted consumes one plain JSON string and returns it with its quotes.
func (s *canonicalScanner) quoted() []byte {
	q := s.span()
	ascii := true
	for _, c := range q {
		if c < 0x20 || c == '\\' {
			s.bad = true
			return nil
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	if !ascii && !utf8.Valid(q) {
		s.bad = true
		return nil
	}
	return q
}

// str consumes one plain JSON string and returns its contents.
func (s *canonicalScanner) str() string {
	q := s.quoted()
	if s.bad {
		return ""
	}
	return string(q[1 : len(q)-1])
}

// raw consumes a record's raw field: null, or a base64 string.
func (s *canonicalScanner) raw() []byte {
	if !s.bad && len(s.b)-s.i >= 4 && string(s.b[s.i:s.i+4]) == "null" {
		s.i += 4
		return nil
	}
	// The base64 decoder rejects every byte a plain string cannot hold
	// except the line breaks it skips, so only those need a check here.
	q := s.span()
	if s.bad || bytes.IndexByte(q, '\n') >= 0 || bytes.IndexByte(q, '\r') >= 0 {
		s.bad = true
		return nil
	}
	enc := q[1 : len(q)-1]
	out := make([]byte, base64.StdEncoding.DecodedLen(len(enc)))
	n, err := base64.StdEncoding.Decode(out, enc)
	if err != nil {
		s.bad = true
		return nil
	}
	return out[:n]
}
