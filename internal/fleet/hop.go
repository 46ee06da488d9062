package fleet

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http/httputil"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The router's hop to a replica is a keep-alive HTTP/1.1 client that runs
// each exchange on the caller's goroutine: write the request in one
// flush, read the answer, hand the connection back. Its peer is always a
// raalserve replica, so it does only what that peer needs: no TLS,
// redirects, compression, 1xx answers or pipelining.

const (
	maxIdlePerReplica = 64               // idle connections kept per replica
	idleTimeout       = 30 * time.Second // older idle connections are closed when taken
	maxHeaderBytes    = 4 << 10          // an answer's status line and headers; also the read buffer's size
)

var (
	// expired is a deadline in the past: setting it fails a blocked read
	// or write at once.
	expired = time.Unix(1, 0)
	// errMalformed marks an answer this client cannot read as HTTP/1.1.
	errMalformed = errors.New("malformed HTTP response")
)

// request is one prepared request to a replica endpoint: its bytes up to
// the Content-Length value, and the method and URL its errors name.
type request struct {
	op, url string // op is "Post" or "Get", as url.Error words it
	head    []byte
}

// newRequest prepares op ("Post" or "Get") of target, with header lines
// (each CRLF-terminated) after Host.
func newRequest(op, target, header string) (*request, error) {
	u, err := url.Parse(target)
	if err != nil {
		return nil, err
	}
	head := strings.ToUpper(op) + " " + u.RequestURI() + " HTTP/1.1\r\nHost: " + u.Host + "\r\n" + header + "Content-Length: "
	return &request{op: op, url: u.Redacted(), head: []byte(head)}, nil
}

// hop is one replica's client: the address it dials and a stack of idle
// connections, the most recently used on top.
type hop struct {
	addr   string
	mu     sync.Mutex
	idle   []*conn
	closed bool
}

// conn is one connection to a replica with its buffers.
type conn struct {
	net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	idleAt   time.Time
	reused   bool // it came from the idle stack
	answered bool // a byte of the current answer arrived
}

// do sends req with body and returns the answer's status and body. The
// exchange must end by timeout and by ctx's deadline; cancelling ctx ends
// it at once. A reused connection that fails before the first answer byte
// (the replica closed it while idle) is replaced by a fresh one and the
// request sent again, once; that costs the caller nothing. Every error is
// worded as http.Client words it: `Post "http://…/estimate": …`.
func (h *hop) do(ctx context.Context, timeout time.Duration, req *request, body []byte, limit int64) (int, []byte, error) {
	deadline := time.Now().Add(timeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	c, err := h.get(ctx, deadline)
	for err == nil {
		status, out, keep, xerr := c.exchange(ctx, deadline, req.head, body, limit)
		if xerr == nil && keep {
			h.put(c)
		} else {
			c.Close()
		}
		if err = xerr; err == nil {
			return status, out, nil
		}
		if !c.reused || c.answered || errors.Is(err, os.ErrDeadlineExceeded) || ctx.Err() != nil {
			break
		}
		c, err = h.dial(ctx, deadline)
	}
	return 0, nil, &url.Error{Op: req.op, URL: req.url, Err: err}
}

// get pops the most recently idled connection, or dials one. The stack is
// ordered by idle time, so when its top has idled past idleTimeout every
// connection in it has, and all are closed.
func (h *hop) get(ctx context.Context, deadline time.Time) (*conn, error) {
	var stale []*conn
	h.mu.Lock()
	if n := len(h.idle); n > 0 {
		if c := h.idle[n-1]; time.Since(c.idleAt) <= idleTimeout {
			h.idle[n-1] = nil
			h.idle = h.idle[:n-1]
			h.mu.Unlock()
			return c, nil
		}
		stale, h.idle = h.idle, nil
	}
	h.mu.Unlock()
	for _, c := range stale {
		c.Close()
	}
	return h.dial(ctx, deadline)
}

func (h *hop) dial(ctx context.Context, deadline time.Time) (*conn, error) {
	d := net.Dialer{Deadline: deadline}
	nc, err := d.DialContext(ctx, "tcp", h.addr)
	if err != nil {
		return nil, err
	}
	return &conn{Conn: nc, br: bufio.NewReaderSize(nc, maxHeaderBytes), bw: bufio.NewWriter(nc)}, nil
}

// put returns c to the idle stack, or closes it when the stack is full or
// the router closed.
func (h *hop) put(c *conn) {
	h.mu.Lock()
	if h.closed || len(h.idle) >= maxIdlePerReplica {
		h.mu.Unlock()
		c.Close()
		return
	}
	c.idleAt = time.Now()
	c.reused = true
	h.idle = append(h.idle, c)
	h.mu.Unlock()
}

// close closes every idle connection and any returned later.
func (h *hop) close() {
	h.mu.Lock()
	idle := h.idle
	h.idle, h.closed = nil, true
	h.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// exchange writes one request on c and reads its answer. keep reports
// whether c may carry another request: the answer was framed by
// Content-Length on a keep-alive connection, nothing follows it, and
// ctx was not cancelled while c was in use.
func (c *conn) exchange(ctx context.Context, deadline time.Time, head, body []byte, limit int64) (status int, out []byte, keep bool, err error) {
	c.answered = false
	c.SetDeadline(deadline)
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(expired) })
	defer func() {
		if !stop() {
			keep = false
		}
	}()
	c.bw.Write(head)
	c.bw.Write(strconv.AppendInt(c.bw.AvailableBuffer(), int64(len(body)), 10))
	c.bw.WriteString("\r\n\r\n")
	c.bw.Write(body)
	if err = c.bw.Flush(); err != nil {
		return 0, nil, false, err
	}
	if _, err = c.br.Peek(1); err != nil {
		return 0, nil, false, err
	}
	c.answered = true
	status, out, keep, err = readResponse(c.br, limit)
	return status, out, keep && c.br.Buffered() == 0, err
}

func malformed(what string) error { return fmt.Errorf("%w: %s", errMalformed, what) }

// readResponse reads one answer from br: the status line, the header
// section (at most maxHeaderBytes, and only Content-Length,
// Transfer-Encoding and Connection are read) and a body of at most limit
// bytes, framed by Content-Length, chunked, or the end of the stream.
// keep reports whether the connection may carry another request: only a
// Content-Length answer on an HTTP/1.1 connection the replica did not
// close qualifies.
func readResponse(br *bufio.Reader, limit int64) (status int, body []byte, keep bool, err error) {
	budget := maxHeaderBytes
	line, err := readLine(br, &budget)
	if err != nil {
		return 0, nil, false, err
	}
	if len(line) < 12 || string(line[:7]) != "HTTP/1." || (line[7] != '0' && line[7] != '1') ||
		line[8] != ' ' || (len(line) > 12 && line[12] != ' ') {
		return 0, nil, false, malformed("bad status line")
	}
	if status, err = strconv.Atoi(string(line[9:12])); err != nil || status < 200 || status > 599 {
		return 0, nil, false, malformed("status " + string(line[9:12]))
	}
	http11 := line[7] == '1'
	keep = http11
	length, chunked := int64(-1), false
	for {
		if line, err = readLine(br, &budget); err != nil {
			return 0, nil, false, err
		}
		if len(line) == 0 {
			break
		}
		key, value, ok := bytes.Cut(line, []byte(":"))
		if !ok || len(key) == 0 || line[0] == ' ' || line[0] == '\t' {
			return 0, nil, false, malformed("bad header line")
		}
		value = bytes.Trim(value, " \t")
		switch {
		case bytes.EqualFold(key, []byte("Content-Length")):
			n, err := strconv.ParseUint(string(value), 10, 63)
			if err != nil || length >= 0 && int64(n) != length {
				return 0, nil, false, malformed("bad or conflicting Content-Length")
			}
			length = int64(n)
		case bytes.EqualFold(key, []byte("Transfer-Encoding")):
			if chunked || !bytes.EqualFold(value, []byte("chunked")) || !http11 {
				return 0, nil, false, malformed("unsupported Transfer-Encoding")
			}
			chunked = true
		case bytes.EqualFold(key, []byte("Connection")):
			for _, tok := range bytes.Split(value, []byte(",")) {
				keep = keep && !bytes.EqualFold(bytes.Trim(tok, " \t"), []byte("close"))
			}
		}
	}
	switch {
	case chunked && length >= 0:
		return 0, nil, false, malformed("both Transfer-Encoding and Content-Length")
	case status == 204 || status == 304:
		return status, nil, false, nil
	case length > limit:
		return 0, nil, false, fmt.Errorf("response body exceeds %d byte limit", limit)
	case length >= 0:
		body = make([]byte, length)
		if _, err := io.ReadFull(br, body); err != nil {
			return 0, nil, false, err
		}
		return status, body, keep, nil
	}
	var src io.Reader = br
	if chunked {
		src = httputil.NewChunkedReader(br)
	}
	if body, err = io.ReadAll(io.LimitReader(src, limit+1)); err != nil {
		return 0, nil, false, err
	}
	if int64(len(body)) > limit {
		return 0, nil, false, fmt.Errorf("response body exceeds %d byte limit", limit)
	}
	return status, body, false, nil
}

// readLine reads one CRLF-terminated line, without the CRLF, and charges
// it to the header budget. The line is valid until br's next read.
func readLine(br *bufio.Reader, budget *int) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if *budget -= len(line); *budget < 0 || err == bufio.ErrBufferFull {
		return nil, malformed(fmt.Sprintf("header section over %d bytes", maxHeaderBytes))
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, malformed("line not ended by CRLF")
	}
	return line[:len(line)-2], nil
}
