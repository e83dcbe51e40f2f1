package main

import (
	"bufio"
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/comm"
	"repro/internal/mlsearch"
	"repro/internal/obs"
	"repro/internal/tree"
)

// Probes time one layer's public functions directly, replaying what the
// traced run captured, for the layers whose cost inside a search is too
// small or too interleaved to read off a span.

const probeIters = 2000

// timePer runs fn n times and returns the mean duration of one call.
func timePer(n int, fn func() error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start) / time.Duration(n), nil
}

// probeSearchLayers adds the tree, codec and comm probes to a search
// workload's layer metrics. Codec and comm are probed only where the
// workload's transport uses them.
func probeSearchLayers(m map[string]float64, w workload, ds *dataset, res *mlsearch.SearchResult, caps []capturedTask) error {
	if err := probeTree(m, ds.taxa, res.BestNewick); err != nil {
		return err
	}
	if w.Transport == mlsearch.Serial || len(caps) == 0 {
		return nil
	}
	// The task of median size: a frame is fixed fields plus these strings.
	size := func(t mlsearch.Task) int { return len(t.Newick) + len(t.BaseNewick) }
	sort.Slice(caps, func(i, j int) bool { return size(caps[i].task) < size(caps[j].task) })
	mid := caps[len(caps)/2]
	if err := probeCodec(m, mid); err != nil {
		return err
	}
	frame := mlsearch.MarshalTask(mid.task)
	defer comm.PutBuf(frame)
	var err error
	if w.Transport == mlsearch.TCP {
		m["comm.tcp_rtt_us"], err = probeTCP(frame)
	} else {
		m["comm.local_rtt_us"], err = probeLocal(frame)
		// Computed, not measured: the task and result frames of every
		// captured pair, plus the round batch and reply between master
		// and foreman.
		var bytesTotal int
		for _, c := range caps {
			bytesTotal += frameLen(mlsearch.MarshalTask(c.task)) + frameLen(mlsearch.MarshalResult(c.result))
		}
		n := float64(len(caps))
		m["comm.bytes_per_task"] = float64(bytesTotal) / n
		m["comm.msgs_per_task"] = (2*n + 2*float64(len(res.Rounds))) / n
	}
	return err
}

// frameLen measures a freshly marshalled frame and returns its buffer to
// the comm pool.
func frameLen(b []byte) int {
	defer comm.PutBuf(b)
	return len(b)
}

// probeTree times Newick parse and format and one SPR apply/undo cycle
// on the workload's final tree.
func probeTree(m map[string]float64, taxa []string, newick string) error {
	tr, err := tree.ParseNewick(newick, taxa)
	if err != nil {
		return err
	}
	d, err := timePer(probeIters, func() error { _, err := tree.ParseNewick(newick, taxa); return err })
	if err != nil {
		return err
	}
	m["tree.parse_us"] = us(d)
	d, _ = timePer(probeIters, func() error { _ = tr.Newick(); return nil })
	m["tree.format_us"] = us(d)

	var moves []tree.SPRMove
	if _, err := tr.Rearrangements(1, func(_ *tree.Tree, c tree.RearrangeCandidate) bool {
		moves = append(moves, c.Move())
		return true
	}); err != nil {
		return err
	}
	if len(moves) == 0 {
		return nil
	}
	i := 0
	d, err = timePer(probeIters, func() error {
		undo, err := tr.ApplySPR(moves[i%len(moves)])
		i++
		if err != nil {
			return err
		}
		undo.Undo()
		return nil
	})
	m["tree.spr_apply_undo_us"] = us(d)
	return err
}

// probeCodec replays one captured task and its result through
// Marshal/Unmarshal.
func probeCodec(m map[string]float64, c capturedTask) error {
	taskRT := func() error {
		b := mlsearch.MarshalTask(c.task)
		_, err := mlsearch.UnmarshalTask(b)
		comm.PutBuf(b)
		return err
	}
	resultRT := func() error {
		b := mlsearch.MarshalResult(c.result)
		_, err := mlsearch.UnmarshalResult(b)
		comm.PutBuf(b)
		return err
	}
	d, err := timePer(probeIters, taskRT)
	if err != nil {
		return err
	}
	m["codec.task_roundtrip_us"] = us(d)
	if d, err = timePer(probeIters, resultRT); err != nil {
		return err
	}
	m["codec.result_roundtrip_us"] = us(d)
	m["codec.task_bytes"] = float64(frameLen(mlsearch.MarshalTask(c.task)))

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < probeIters; i++ {
		_ = taskRT()
		_ = resultRT()
	}
	runtime.ReadMemStats(&ms1)
	m["codec.allocs_per_roundtrip"] = float64(ms1.Mallocs-ms0.Mallocs) / (2 * probeIters)
	return nil
}

// pingPong bounces frame between a and b and returns the mean round
// trip in microseconds. b echoes on its own goroutine.
func pingPong(a, b comm.Communicator, frame []byte) (float64, error) {
	echoErr := make(chan error, 1)
	go func() {
		for {
			msg, err := b.Recv(comm.AnySource, comm.AnyTag)
			if err != nil {
				echoErr <- err
				return
			}
			if msg.Tag == comm.TagShutdown {
				echoErr <- nil
				return
			}
			if err := b.Send(msg.From, comm.TagResult, msg.Data); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	d, err := timePer(probeIters, func() error {
		if err := a.Send(b.Rank(), comm.TagTask, frame); err != nil {
			return err
		}
		_, err := a.Recv(b.Rank(), comm.TagResult)
		return err
	})
	if serr := a.Send(b.Rank(), comm.TagShutdown, nil); err == nil {
		err = serr
	}
	if eerr := <-echoErr; err == nil {
		err = eerr
	}
	return us(d), err
}

func probeLocal(frame []byte) (float64, error) {
	world, err := comm.NewLocal(2)
	if err != nil {
		return 0, err
	}
	defer world[0].Close()
	defer world[1].Close()
	return pingPong(world[0], world[1], frame)
}

// probeTCP bounces the frame between two dialed ranks through the
// router on loopback, the path a task and its result take between the
// foreman and a worker.
func probeTCP(frame []byte) (float64, error) {
	router, err := comm.NewTCPRouter("127.0.0.1:0", 3)
	if err != nil {
		return 0, err
	}
	defer router.Close()
	addr, ok := comm.ListenAddr(router)
	if !ok {
		return 0, fmt.Errorf("tcp router has no listen address")
	}
	a, err := comm.DialTCP(addr.String(), 1, 3)
	if err != nil {
		return 0, err
	}
	defer a.Close()
	b, err := comm.DialTCP(addr.String(), 2, 3)
	if err != nil {
		return 0, err
	}
	defer b.Close()
	return pingPong(a, b, frame)
}

// sumMetric adds up every series of one family in a registry, whatever
// its labels, by reading the same text /metrics serves.
func sumMetric(reg *obs.Registry, name string) float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0
	}
	var total float64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			total += v
		}
	}
	return total
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
