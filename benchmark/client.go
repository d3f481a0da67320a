package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"

	"github.com/rlr-tree/rlrtree/internal/geom"
)

// conn is a minimal pipelined HTTP/1.1 client connection: requests are
// queued into one buffer, written with one syscall, and the responses
// read back in order, each timed from the batch write. net/http cannot
// pipeline and costs several goroutine hand-offs and allocations per
// request — on a 2-core box that would be the load generator, not the
// server, setting the numbers. The benchmark opens at most two of these
// and runs them closed-loop: a connection sends its next batch only
// after the previous one is fully answered.
type conn struct {
	c      net.Conn
	br     *bufio.Reader
	host   string
	out    []byte // request batch under construction
	queued int
	body   []byte // body of the response last read; reused
	tmp    []byte // scratch for one request body
}

func dial(addr string) (*conn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 64<<10), host: addr}, nil
}

func (p *conn) close() { p.c.Close() }

func appendRect(b []byte, r geom.Rect) []byte {
	b = strconv.AppendFloat(b, r.MinX, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, r.MinY, 'g', -1, 64)
	b = append(b, ',')
	b = strconv.AppendFloat(b, r.MaxX, 'g', -1, 64)
	b = append(b, ',')
	return strconv.AppendFloat(b, r.MaxY, 'g', -1, 64)
}

// appendSetBody appends the JSON body of POST /set. Keys are k%07d, so
// they need no escaping; 'g' with precision -1 round-trips a float64
// exactly, so the server stores the very rect the model holds.
func appendSetBody(b []byte, key string, r geom.Rect) []byte {
	b = append(b, `{"key":"`...)
	b = append(b, key...)
	b = append(b, `","rect":[`...)
	b = appendRect(b, r)
	return append(b, "]}"...)
}

// appendQueryTarget appends the request target of the op as a paged
// keyed query with one page of limit rows.
func appendQueryTarget(b []byte, o op, limit int) []byte {
	if o.kind == opKNN {
		b = append(b, "/knn?point="...)
		b = strconv.AppendFloat(b, o.pt.X, 'g', -1, 64)
		b = append(b, ',')
		b = strconv.AppendFloat(b, o.pt.Y, 'g', -1, 64)
		b = append(b, "&k="...)
		b = strconv.AppendInt(b, knnK, 10)
	} else {
		b = append(b, "/search?rect="...)
		b = appendRect(b, o.rect)
	}
	b = append(b, "&limit="...)
	return strconv.AppendInt(b, int64(limit), 10)
}

// addSet queues POST /set for key at r.
func (p *conn) addSet(key string, r geom.Rect) {
	p.tmp = appendSetBody(p.tmp[:0], key, r)
	p.out = append(p.out, "POST /set HTTP/1.1\r\nHost: "...)
	p.out = append(p.out, p.host...)
	p.out = append(p.out, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	p.out = strconv.AppendInt(p.out, int64(len(p.tmp)), 10)
	p.out = append(p.out, "\r\n\r\n"...)
	p.out = append(p.out, p.tmp...)
	p.queued++
}

// endGet closes a GET whose "GET " and target are already queued.
func (p *conn) endGet() {
	p.out = append(p.out, " HTTP/1.1\r\nHost: "...)
	p.out = append(p.out, p.host...)
	p.out = append(p.out, "\r\n\r\n"...)
	p.queued++
}

// addGet queues a GET of a literal target.
func (p *conn) addGet(target string) {
	p.out = append(append(p.out, "GET "...), target...)
	p.endGet()
}

// addQuery queues the op as a paged keyed query.
func (p *conn) addQuery(o op, limit int) {
	p.out = appendQueryTarget(append(p.out, "GET "...), o, limit)
	p.endGet()
}

// flush writes the queued batch and reads its responses in order. fn
// sees each response's index in the batch, status, body (valid until
// the next response is read) and the time since the batch was written.
// A transport or framing error is fatal for the connection.
func (p *conn) flush(fn func(i, status int, body []byte, lat time.Duration)) error {
	n := p.queued
	p.queued = 0
	start := time.Now()
	_, err := p.c.Write(p.out)
	p.out = p.out[:0]
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		status, err := p.readResponse()
		if err != nil {
			return fmt.Errorf("pipelined response %d/%d: %w", i+1, n, err)
		}
		fn(i, status, p.body, time.Since(start))
	}
	return nil
}

// do sends one request alone and returns its status and body.
func (p *conn) do(path string) (status int, body []byte, err error) {
	p.addGet(path)
	err = p.flush(func(_, s int, b []byte, _ time.Duration) { status, body = s, b })
	return status, body, err
}

// readResponse parses one keep-alive response — status line,
// Content-Length or chunked framing — leaving the body in p.body.
// http.ReadResponse would allocate a Response and header map per call.
func (p *conn) readResponse() (status int, err error) {
	line, err := p.br.ReadSlice('\n')
	if err != nil {
		return 0, err
	}
	// "HTTP/1.1 200 OK\r\n": the code sits at bytes 9..12.
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		h, err := p.br.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		if len(h) <= 2 { // bare CRLF ends the headers
			break
		}
		if v, ok := headerValue(h, "Content-Length:"); ok {
			if length, err = strconv.Atoi(string(v)); err != nil {
				return 0, fmt.Errorf("bad Content-Length %q", v)
			}
		} else if v, ok := headerValue(h, "Transfer-Encoding:"); ok {
			chunked = bytes.EqualFold(v, []byte("chunked"))
		}
	}
	p.body = p.body[:0]
	switch {
	case chunked:
		return status, p.readChunked()
	case length >= 0:
		return status, p.readN(length)
	}
	return 0, errors.New("response with neither Content-Length nor chunked framing")
}

func headerValue(line []byte, name string) ([]byte, bool) {
	if len(line) < len(name) || !bytes.EqualFold(line[:len(name)], []byte(name)) {
		return nil, false
	}
	return bytes.TrimSpace(line[len(name):]), true
}

// readN appends the next n bytes of the stream to p.body.
func (p *conn) readN(n int) error {
	at := len(p.body)
	if cap(p.body) < at+n {
		grown := make([]byte, at, 2*(at+n))
		copy(grown, p.body)
		p.body = grown
	}
	p.body = p.body[:at+n]
	_, err := io.ReadFull(p.br, p.body[at:])
	return err
}

func (p *conn) readChunked() error {
	for {
		line, err := p.br.ReadSlice('\n')
		if err != nil {
			return err
		}
		size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", line)
		}
		if size == 0 {
			_, err := p.br.ReadSlice('\n') // the server sends no trailers
			return err
		}
		if err := p.readN(int(size)); err != nil {
			return err
		}
		if _, err := p.br.Discard(2); err != nil {
			return err
		}
	}
}

// nodesAccessed extracts the trailing "nodes_accessed" field of a query
// response without decoding the rest.
func nodesAccessed(body []byte) (int, bool) {
	const field = `"nodes_accessed":`
	i := bytes.LastIndex(body, []byte(field))
	if i < 0 {
		return 0, false
	}
	n, seen := 0, false
	for _, c := range body[i+len(field):] {
		if c < '0' || c > '9' {
			break
		}
		n, seen = n*10+int(c-'0'), true
	}
	return n, seen
}
