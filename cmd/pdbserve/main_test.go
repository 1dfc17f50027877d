package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

// A client that sends half a request header and then goes quiet must be
// disconnected by the server, not held forever.
func TestSlowHeaderClientIsClosed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.NotFoundHandler())
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/query HTTP/1.1\r\nHost: pdb")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(readHeaderTimeout + 5*time.Second))
	_, err = io.ReadAll(conn) // returns once the server closes the connection
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open %s after half a header", readHeaderTimeout+5*time.Second)
	}
}
