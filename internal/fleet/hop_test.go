package fleet

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"testing"
)

// fuzzLimit is FuzzReplicaResponse's MaxBodyBytes: small, so that
// oversized bodies are easy to reach.
const fuzzLimit = 64

// FuzzReplicaResponse feeds arbitrary bytes to the router as a replica's
// answer. readResponse must return a status in [200, 599] and a body of
// at most the limit, or an error; it must not panic, and it cannot block
// on a byte reader. On an input both it and http.ReadResponse accept,
// the two must agree on the status and the body bytes. readResponse may
// refuse what ReadResponse accepts (1xx, bare-LF lines, folded headers,
// other protocol versions, both Content-Length and Transfer-Encoding),
// but never reads an accepted answer differently. The committed corpus
// holds well-formed, chunked, close-delimited, truncated, oversized and
// conflicting-length answers.
func FuzzReplicaResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, reply []byte) {
		status, body, _, err := readResponse(bufio.NewReaderSize(bytes.NewReader(reply), maxHeaderBytes), fuzzLimit)
		if err != nil {
			return
		}
		if status < 200 || status > 599 || len(body) > fuzzLimit {
			t.Fatalf("accepted status %d with a %d-byte body (limit %d)", status, len(body), fuzzLimit)
		}
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(reply)), &http.Request{Method: http.MethodPost})
		if err != nil {
			return
		}
		want, err := io.ReadAll(resp.Body)
		if err != nil {
			return
		}
		if resp.StatusCode != status || !bytes.Equal(body, want) {
			t.Fatalf("read status %d body %q; http.ReadResponse reads %d %q", status, body, resp.StatusCode, want)
		}
	})
}

// TestReadResponseFraming pins how each framing is read and which
// answers leave the connection reusable.
func TestReadResponseFraming(t *testing.T) {
	for _, tc := range []struct {
		name, reply string
		status      int
		body        string
		keep        bool
		malformed   bool
	}{
		{name: "content-length", reply: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}", status: 200, body: "{}", keep: true},
		{name: "duplicate equal lengths", reply: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\ncontent-length:  2 \r\n\r\n{}", status: 200, body: "{}", keep: true},
		{name: "connection close", reply: "HTTP/1.1 400 Bad\r\nConnection: keep-alive, Close\r\nContent-Length: 2\r\n\r\n{}", status: 400, body: "{}"},
		{name: "http/1.0", reply: "HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\n{}", status: 200, body: "{}"},
		{name: "chunked", reply: "HTTP/1.1 200 OK\r\nTransfer-Encoding: Chunked\r\n\r\n1\r\n{\r\n1;ext=1\r\n}\r\n0\r\n\r\n", status: 200, body: "{}"},
		{name: "close-delimited", reply: "HTTP/1.1 503 Busy\r\n\r\n{}", status: 503, body: "{}"},
		{name: "no content", reply: "HTTP/1.1 204 No Content\r\n\r\n", status: 204},
		{name: "no reason", reply: "HTTP/1.1 200\r\nContent-Length: 0\r\n\r\n", status: 200, keep: true},
		{name: "truncated body", reply: "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n{}"},
		{name: "truncated headers", reply: "HTTP/1.1 200 OK\r\nContent-Len"},
		{name: "empty", reply: ""},
		{name: "length over limit", reply: "HTTP/1.1 200 OK\r\nContent-Length: 65\r\n\r\n"},
		{name: "status 600", reply: "HTTP/1.1 600 OK\r\n\r\n", malformed: true},
		{name: "transfer-encoding in http/1.0", reply: "HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n", malformed: true},
		{name: "gzip", reply: "HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip\r\n\r\n", malformed: true},
		{name: "empty header name", reply: "HTTP/1.1 200 OK\r\n: x\r\n\r\n", malformed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			status, body, keep, err := readResponse(bufio.NewReaderSize(bytes.NewReader([]byte(tc.reply)), maxHeaderBytes), fuzzLimit)
			if wantErr := tc.status == 0; (err != nil) != wantErr || errors.Is(err, errMalformed) != tc.malformed {
				t.Fatalf("error %v, want error %v (malformed %v)", err, wantErr, tc.malformed)
			}
			if status != tc.status || string(body) != tc.body || keep != tc.keep {
				t.Fatalf("read %d %q keep %v, want %d %q keep %v", status, body, keep, tc.status, tc.body, tc.keep)
			}
		})
	}
}
