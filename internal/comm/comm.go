// Package comm is the message-passing substrate of the parallel runtime.
//
// The paper's fastDNAml sequesters every message-passing call in a single
// file per library (comm_mpi.c, comm_pvm.c) so the rest of the program is
// independent of MPI or PVM. This package reproduces that seam for Go,
// where no MPI ecosystem exists: the Communicator interface carries tagged
// point-to-point messages between integer ranks. A rank is either hosted
// by the process that created the world — its endpoint is an in-process
// mailbox, on every transport — or remote, a process that dialed the
// world's TCP router (length-prefixed frames over sockets, for clusters
// and volunteer workers). A local world (NewLocal) is the case where
// every rank is hosted. Message order is preserved per (sender,
// receiver) pair, like MPI.
package comm

import (
	"errors"
	"time"
)

// Tag labels the kind of a message, mirroring MPI tags.
type Tag int32

// Message tags used by the parallel runtime.
const (
	// TagTask carries a tree-evaluation task from foreman to worker.
	TagTask Tag = 1 + iota
	// TagResult carries an evaluated tree from worker to foreman.
	TagResult
	// TagControl is the master side's empty wake-up to the foreman it
	// shares a process with: a round is waiting in the foreman's inbox.
	TagControl
	// TagShutdown tells a process to exit its receive loop.
	TagShutdown
	// TagJoin announces that a worker joined the world. It is synthesized
	// by the transport (never sent by application code) and delivered to
	// the configured membership rank with From set to the new rank.
	TagJoin
	// TagLeave announces that a worker's connection dropped, synthesized
	// like TagJoin. A rank that leaves never returns: a reconnecting
	// worker is assigned a fresh rank.
	TagLeave
)

// Wildcards accepted by Recv.
const (
	// AnySource matches a message from any rank.
	AnySource = -1
	// AnyTag matches a message with any tag.
	AnyTag Tag = -1
)

// Errors returned by communicators.
var (
	// ErrTimeout reports that RecvTimeout expired with no matching
	// message; the foreman's fault-tolerance logic treats it as a
	// delinquent worker signal.
	ErrTimeout = errors.New("comm: receive timed out")
	// ErrClosed reports use of a closed communicator.
	ErrClosed = errors.New("comm: communicator closed")
	// ErrNoRoute reports a Send to a rank with no live connection; the
	// foreman treats it as an immediate worker departure instead of
	// waiting for a task timeout.
	ErrNoRoute = errors.New("comm: no route to rank")
)

// Message is one received message.
type Message struct {
	// From is the sender's rank.
	From int
	// Tag is the message tag.
	Tag Tag
	// Data is the payload; the receiver owns it.
	Data []byte
}

// Communicator is one process's endpoint in the parallel program.
// Implementations must allow Send and Recv from different goroutines and
// must preserve per-sender FIFO order of delivery. As with a
// single-threaded MPI rank, at most one goroutine may block in
// Recv/RecvTimeout on a given endpoint at a time.
type Communicator interface {
	// Rank returns this process's identity (0-based).
	Rank() int
	// Size returns the total number of processes.
	Size() int
	// Send delivers data to rank `to` with the given tag. Send does not
	// block awaiting the receiver (buffered semantics).
	Send(to int, tag Tag, data []byte) error
	// Recv blocks until a message matching (from, tag) arrives; use
	// AnySource and AnyTag as wildcards. Non-matching messages are held
	// for later receives.
	Recv(from int, tag Tag) (Message, error)
	// RecvTimeout behaves like Recv but gives up after d, returning
	// ErrTimeout.
	RecvTimeout(from int, tag Tag, d time.Duration) (Message, error)
	// Close releases the endpoint. Blocked receives return ErrClosed.
	Close() error
}

// matches reports whether a queued message satisfies a receive pattern.
func matches(m Message, from int, tag Tag) bool {
	if from != AnySource && m.From != from {
		return false
	}
	if tag != AnyTag && m.Tag != tag {
		return false
	}
	return true
}
