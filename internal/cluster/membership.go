package cluster

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Member is one node of the static seed list.
type Member struct {
	// ID is the node's stable identity — it determines ring placement
	// and follower order, so it must be unique and constant across
	// restarts.
	ID string `json:"id"`
	// Addr is the node's HTTP base URL, e.g. "http://127.0.0.1:8341".
	Addr string `json:"addr"`
}

// ParseMembers parses a static member list, "id=url,id=url,...", trimming
// trailing slashes off each URL. Duplicate IDs and a Self missing from
// the list are Config's to reject (New).
func ParseMembers(s string) ([]Member, error) {
	var out []Member
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("cluster: bad member %q (want id=url)", part)
		}
		out = append(out, Member{ID: id, Addr: strings.TrimRight(url, "/")})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cluster: empty member list (want id=url,id=url,...)")
	}
	return out, nil
}

// Peer liveness states. Peers move alive -> suspect after DeadAfter
// consecutive probe failures, suspect -> dead after SuspectGrace more
// time of failure, and back to alive on the first success from either
// state. The suspect stage is flap damping: routing and follower
// selection already avoid a suspect peer (cheap, reversible), but the
// expensive irreversible reaction — adopting its jobs — waits until the
// peer is well and truly gone, so a transient partition does not trigger
// a wave of duplicate executions.
const (
	peerAlive = iota
	peerSuspect
	peerDead
)

// Membership tracks peer liveness by probing each peer's /healthz on a
// fixed interval, each probe with its own deadline so one hung peer can
// never stall its probe loop. Transition callbacks fire exactly once per
// transition: onSuspect (alive->suspect), onDeath (suspect->dead),
// onRejoin (dead->alive: the peer returned after its jobs may already
// have been adopted). A suspect peer that answers again before its grace
// runs out (a damped flap) goes back to alive silently. Peers
// start alive — optimism costs one failed request, pessimism would
// reject work during a clean rolling start.
type Membership struct {
	self         string
	peers        []Member
	interval     time.Duration
	probeTimeout time.Duration
	deadAfter    int
	suspectGrace time.Duration
	client       *http.Client
	// Transition callbacks, nil or set before Start.
	onDeath, onSuspect, onRejoin func(id string)

	mu    sync.Mutex
	state map[string]*peerState

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

type peerState struct {
	status    int
	fails     int
	suspectAt time.Time
}

// newMembership wires the prober; set the callbacks, then Start launches
// it.
func newMembership(self string, peers []Member, interval, probeTimeout time.Duration, deadAfter int, suspectGrace time.Duration, client *http.Client) *Membership {
	m := &Membership{
		self:         self,
		peers:        peers,
		interval:     interval,
		probeTimeout: probeTimeout,
		deadAfter:    deadAfter,
		suspectGrace: suspectGrace,
		client:       client,
		state:        make(map[string]*peerState, len(peers)),
		stop:         make(chan struct{}),
	}
	for _, p := range peers {
		m.state[p.ID] = &peerState{status: peerAlive}
	}
	return m
}

// Start launches one probe loop per peer. Per-peer loops keep one slow
// peer from delaying the death detection of another.
func (m *Membership) Start() {
	for _, p := range m.peers {
		p := p
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			t := time.NewTicker(m.interval)
			defer t.Stop()
			for {
				select {
				case <-m.stop:
					return
				case <-t.C:
					m.record(p.ID, m.probe(p.Addr))
				}
			}
		}()
	}
}

// probe checks one peer's liveness. Each attempt carries its own
// deadline (probeTimeout), independent of the shared HTTP client's
// timeout: a peer that accepts connections but never answers must not
// hold its probe loop hostage for longer than one detection step. Any
// 2xx/3xx/4xx answer proves the process is up; only transport failures
// and 5xx count against it (a draining node still owns its jobs until
// it is actually gone).
func (m *Membership) probe(addr string) error {
	ctx, cancel := context.WithTimeout(context.Background(), m.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, addr+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode >= 500 {
		return fmt.Errorf("cluster: probe %s: HTTP %d", addr, resp.StatusCode)
	}
	return nil
}

// record folds one probe outcome into the peer's state machine, firing
// the transition callback outside the lock.
func (m *Membership) record(id string, err error) {
	var fire func(string)
	m.mu.Lock()
	st := m.state[id]
	if err == nil {
		st.fails = 0
		switch st.status {
		case peerSuspect:
			st.status = peerAlive
		case peerDead:
			st.status = peerAlive
			fire = m.onRejoin
		}
	} else {
		st.fails++
		switch st.status {
		case peerAlive:
			if st.fails >= m.deadAfter {
				st.status = peerSuspect
				st.suspectAt = time.Now()
				fire = m.onSuspect
			}
		case peerSuspect:
			if time.Since(st.suspectAt) >= m.suspectGrace {
				st.status = peerDead
				fire = m.onDeath
			}
		}
	}
	m.mu.Unlock()
	if fire != nil {
		fire(id)
	}
}

// Alive reports whether the member is fully alive — suspect peers are
// excluded, so routing and follower selection stop using a peer the
// moment it goes quiet, long before adoption fires. Self is always
// alive.
func (m *Membership) Alive(id string) bool {
	if id == m.self {
		return true
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[id]
	return ok && st.status == peerAlive
}

// Dead reports whether the member has been declared dead (suspect peers
// are not dead yet).
func (m *Membership) Dead(id string) bool {
	if id == m.self {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st, ok := m.state[id]
	return ok && st.status == peerDead
}

// AliveCount counts members fully alive, self included.
func (m *Membership) AliveCount() int {
	n := 1
	m.mu.Lock()
	for _, st := range m.state {
		if st.status == peerAlive {
			n++
		}
	}
	m.mu.Unlock()
	return n
}

// SuspectCount counts members currently in the suspect state.
func (m *Membership) SuspectCount() int {
	n := 0
	m.mu.Lock()
	for _, st := range m.state {
		if st.status == peerSuspect {
			n++
		}
	}
	m.mu.Unlock()
	return n
}

// Close stops the probe loops.
func (m *Membership) Close() {
	m.stopOnce.Do(func() { close(m.stop) })
	m.wg.Wait()
}
