package comm

import "testing"

// BenchmarkLocalPingPong measures one request/reply round trip through
// the in-process backend.
func BenchmarkLocalPingPong(b *testing.B) {
	w, err := NewLocal(2)
	if err != nil {
		b.Fatal(err)
	}
	defer closeWorld(w)
	payload := make([]byte, 1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := w[1].Recv(0, TagTask)
			if err != nil {
				return
			}
			if err := w[1].Send(0, TagResult, m.Data); err != nil {
				return
			}
		}
	}()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w[0].Send(1, TagTask, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := w[0].Recv(1, TagResult); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	w[1].Close()
	<-done
}

// BenchmarkTCPPingPong measures the same round trip over loopback TCP
// through the router.
func BenchmarkTCPPingPong(b *testing.B) {
	router, err := NewTCPRouter("127.0.0.1:0", 2)
	if err != nil {
		b.Fatal(err)
	}
	defer router.Close()
	addr := listenAddr(b, router)
	client, err := DialTCP(addr, 1, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	payload := make([]byte, 1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			m, err := client.Recv(0, TagTask)
			if err != nil {
				return
			}
			if err := client.Send(0, TagResult, m.Data); err != nil {
				return
			}
		}
	}()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := router.Send(1, TagTask, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := router.Recv(1, TagResult); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	client.Close()
	<-done
}
