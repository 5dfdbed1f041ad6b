package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"

	"mrts/internal/service"
	"mrts/internal/service/api"
	"mrts/internal/service/journal"
)

// Cluster-internal wire types (under /cluster/v1, node-to-node only).
type replicateRequest struct {
	From string `json:"from"`
	// Seq is the batch sequence number of the owner->follower stream
	// (1-based; monotonic per owner process).
	Seq uint64 `json:"seq,omitempty"`
	// Reset replaces the follower's stream with this batch — the owner's
	// full authoritative history — instead of appending.
	Reset   bool             `json:"reset,omitempty"`
	Records []journal.Record `json:"records"`
}

// replicateResponse is the follower's explicit ack: the sequence number
// and record-CRC chain its stream is at after the batch. The owner
// compares both against its own expectation; any mismatch means a
// delivery was lost, duplicated-with-loss, reordered or corrupted, and
// triggers a full-history resync.
type replicateResponse struct {
	Seq uint64 `json:"seq"`
	CRC uint32 `json:"crc"`
}

type stealRequest struct {
	// Thief names the requesting node, so the victim can ask it whether
	// it is still running the job when the lease check comes due.
	Thief string `json:"thief,omitempty"`
}

type stealResponse struct {
	ID   string      `json:"id"`
	Spec api.JobSpec `json:"spec"`
}

// resyncRequest carries terminal states computed elsewhere for jobs the
// receiving node still holds queued: a thief's result for a leased job,
// or the results a rejoined node's adopter computed while the node was
// partitioned away. The node settles its copies instead of running them.
type resyncRequest struct {
	From string      `json:"from"`
	Jobs []resyncJob `json:"jobs"`
}

type resyncJob struct {
	ID     string         `json:"id"`
	State  api.JobState   `json:"state"`
	Error  string         `json:"error,omitempty"`
	Result *api.JobResult `json:"result,omitempty"`
}

type resyncResponse struct {
	Resolved int `json:"resolved"`
}

type statsResponse struct {
	Node  string `json:"node"`
	Queue int    `json:"queue"`
	Ready bool   `json:"ready"`
}

// NodeHeader names the response header carrying the member ID that
// answered (submission: the owner; status: the node holding the job).
const NodeHeader = "X-Mrts-Node"

// Handler returns the node's HTTP surface: the public /v1 API with
// cluster routing layered on top (submissions redirect to the owning
// node, lookups and cancels fan out across members), the internal
// /cluster/v1 endpoints peers use for replication, stealing and
// strictly-local job access — the wrapped server's own /v1 job handlers,
// which never fan out — and the wrapped server's remaining endpoints
// (/v1/sweep, /healthz, /readyz, /metrics) untouched.
func (n *Node) Handler() http.Handler {
	base := n.srv.Handler()
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", n.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", n.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", n.routeJob(n.srv.HandleGet, http.MethodGet, ""))
	cancel := n.routeJob(n.srv.HandleCancel, http.MethodPost, "/cancel")
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", cancel)
	mux.HandleFunc("DELETE /v1/jobs/{id}", cancel)

	mux.HandleFunc("POST /cluster/v1/replicate", n.handleReplicate)
	mux.HandleFunc("POST /cluster/v1/steal", n.handleSteal)
	mux.HandleFunc("POST /cluster/v1/resync", n.handleResync)
	mux.HandleFunc("GET /cluster/v1/stats", n.handleStats)
	mux.HandleFunc("GET /cluster/v1/jobs", n.srv.HandleList)
	mux.HandleFunc("GET /cluster/v1/jobs/{id}", n.srv.HandleGet)
	mux.HandleFunc("POST /cluster/v1/jobs/{id}/cancel", n.srv.HandleCancel)
	mux.HandleFunc("GET /cluster/v1/pending/{id}", n.handlePending)
	mux.HandleFunc("GET /cluster/v1/holds/{id}", n.handleHolds)

	mux.Handle("/", base)
	return mux
}

// handleSubmit routes a submission: the spec's fingerprint picks the
// owning member; a non-owner answers 307 with the owner's submit URL
// (clients re-POST there — Go's http.Client does it automatically), the
// owner admits locally with follower replication. When every other
// member is dead the survivor owns everything.
func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec api.JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		service.WriteError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	owner := n.ring.Owner(Fingerprint(spec), n.mem.Alive)
	if owner != "" && owner != n.cfg.Self {
		n.redirects.Inc()
		w.Header().Set(NodeHeader, owner)
		w.Header().Set("Location", n.addrs[owner]+"/v1/jobs")
		w.WriteHeader(http.StatusTemporaryRedirect)
		return
	}
	// Admission control runs at the owner only, so a redirect hop does
	// not double-charge the client's rate budget.
	if !n.srv.AdmitClient(w, r) {
		return
	}
	job, deduped, err := n.admitOwned(r.Header.Get("Idempotency-Key"), spec)
	if err == nil {
		w.Header().Set(NodeHeader, n.cfg.Self)
	}
	n.srv.WriteSubmit(w, job, deduped, err)
}

// routeJob serves a per-job request (status or cancel) from wherever the
// job lives: locally through the wrapped server's handler, else from the
// first alive peer whose strictly-local /cluster/v1/jobs/{id}+suffix
// endpoint (which cannot recurse back here) holds it. So a client can
// reach a job through any member — including after the original owner
// died and a follower adopted the job.
//
// A miss is 404 only if no member is about to hold the job: while its
// holder is down and not yet adopted from, the job lives only in a
// follower's replica stream, and the answer is 503 with Retry-After —
// an acknowledged job never reads as unknown.
func (n *Node) routeJob(local http.HandlerFunc, method, suffix string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if _, ok := n.srv.Job(id); ok {
			w.Header().Set(NodeHeader, n.cfg.Self)
			local(w, r)
			return
		}
		found := false
		up := []string{n.cfg.Self}
		n.fanOut(r, method, "/cluster/v1/jobs/"+id+suffix, func(peer string, code int, body []byte) bool {
			if code != http.StatusOK {
				if code < 500 {
					up = append(up, peer) // a definitive "not here"
				}
				return true
			}
			n.proxiedLookups.Inc()
			w.Header().Set(NodeHeader, peer)
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(body)
			found = true
			return false
		})
		switch {
		case found:
		case n.adoptionPending(r, id, up):
			w.Header().Set("Retry-After", "1")
			service.WriteError(w, http.StatusServiceUnavailable, "job %q awaits adoption from an unreachable member", id)
		default:
			service.WriteError(w, http.StatusNotFound, "unknown job %q", id)
		}
	}
}

// adoptionPending reports whether this node or an alive peer holds id
// pending adoption (holdsPending) from an origin outside up — the
// members that just answered for themselves.
func (n *Node) adoptionPending(r *http.Request, id string, up []string) bool {
	if n.holdsPending(id, up) {
		return true
	}
	pending := false
	q := url.Values{"up": up}
	n.fanOut(r, http.MethodGet, "/cluster/v1/pending/"+id+"?"+q.Encode(), func(_ string, code int, _ []byte) bool {
		pending = code == http.StatusNoContent
		return !pending
	})
	return pending
}

// holdsPending reports whether id sits in one of this node's unadopted
// replica streams whose origin is not in up, or is already in the local
// table: adopted since the caller's lookup missed. The streams are read
// first, and a stream is marked adopted only after its jobs are in the
// table, so an adoption racing this check cannot slip between the two.
func (n *Node) holdsPending(id string, up []string) bool {
	for _, origin := range n.reps.pending(id) {
		if !slices.Contains(up, origin) {
			return true
		}
	}
	_, ok := n.srv.Job(id)
	return ok
}

// handlePending is the strictly-local half of adoptionPending: 204 when
// this node holds the job pending adoption, 404 otherwise.
func (n *Node) handlePending(w http.ResponseWriter, r *http.Request) {
	if !n.holdsPending(r.PathValue("id"), r.URL.Query()["up"]) {
		w.WriteHeader(http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleList merges the job tables of every alive member, deduped by
// job ID (an adopted completed job may briefly exist on two members —
// with identical payloads) and ordered by creation time for a stable
// view.
func (n *Node) handleList(w http.ResponseWriter, r *http.Request) {
	seen := make(map[string]bool)
	var out []api.JobStatus
	add := func(jobs []api.JobStatus) {
		for _, st := range jobs {
			if !seen[st.ID] {
				seen[st.ID] = true
				out = append(out, st)
			}
		}
	}
	add(n.srv.Jobs())
	n.fanOut(r, http.MethodGet, "/cluster/v1/jobs", func(_ string, code int, body []byte) bool {
		var peerJobs []api.JobStatus
		if code == http.StatusOK && json.Unmarshal(body, &peerJobs) == nil {
			add(peerJobs)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Created != out[j].Created {
			return out[i].Created < out[j].Created
		}
		return out[i].ID < out[j].ID
	})
	if out == nil {
		out = []api.JobStatus{}
	}
	service.WriteJSON(w, http.StatusOK, out)
}

func (n *Node) handleReplicate(w http.ResponseWriter, r *http.Request) {
	var req replicateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		service.WriteError(w, http.StatusBadRequest, "invalid replicate request: %v", err)
		return
	}
	if req.From == "" {
		service.WriteError(w, http.StatusBadRequest, "replicate request needs a from member")
		return
	}
	seq, crc, err := n.storeReplica(req.From, req.Seq, req.Reset, req.Records)
	if err != nil {
		// The in-memory stream still holds the records; report the
		// degraded disk copy without failing the owner's ack path.
		n.replicateFails.Inc()
	}
	// The explicit ack: the owner verifies seq and chain CRC against its
	// expectation and resyncs on any mismatch.
	service.WriteJSON(w, http.StatusOK, replicateResponse{Seq: seq, CRC: crc})
}

func (n *Node) handleSteal(w http.ResponseWriter, r *http.Request) {
	var req stealRequest
	_ = json.NewDecoder(r.Body).Decode(&req) // empty body = anonymous thief
	job := n.grantLease(req.Thief)
	if job == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	service.WriteJSON(w, http.StatusOK, stealResponse{ID: job.ID, Spec: job.Spec})
}

// handleHolds is the lookup a victim's lease check reads: 204 while this
// node is running the leased job, 404 otherwise.
func (n *Node) handleHolds(w http.ResponseWriter, r *http.Request) {
	if !n.running(r.PathValue("id")) {
		w.WriteHeader(http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleResync accepts terminal states computed elsewhere for jobs this
// node still holds queued (see resyncRequest), settling each local copy
// with the posted result instead of running it. A resolved job that was
// leased out acks its lease.
func (n *Node) handleResync(w http.ResponseWriter, r *http.Request) {
	var req resyncRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		service.WriteError(w, http.StatusBadRequest, "invalid resync request: %v", err)
		return
	}
	resolved := 0
	for _, j := range req.Jobs {
		if n.srv.Resolve(j.ID, j.State, j.Error, j.Result) {
			resolved++
			if n.dropLease(j.ID) != nil {
				n.stealsAcked.Inc()
			}
		}
	}
	service.WriteJSON(w, http.StatusOK, resyncResponse{Resolved: resolved})
}

func (n *Node) handleStats(w http.ResponseWriter, r *http.Request) {
	service.WriteJSON(w, http.StatusOK, statsResponse{
		Node:  n.cfg.Self,
		Queue: n.srv.QueueLen(),
		Ready: n.srv.Ready(),
	})
}

// alivePeers maps member ID to address for every peer believed up.
func (n *Node) alivePeers() map[string]string {
	out := make(map[string]string, len(n.addrs))
	for id, addr := range n.addrs {
		if id != n.cfg.Self && n.mem.Alive(id) {
			out[id] = addr
		}
	}
	return out
}

// fanOut sends an empty-bodied method request for path to every alive
// peer in turn and hands each answer's status and body to each, stopping
// early once each returns false. Unreachable peers are skipped.
func (n *Node) fanOut(r *http.Request, method, path string, each func(peer string, code int, body []byte) bool) {
	for id, addr := range n.alivePeers() {
		req, err := http.NewRequestWithContext(r.Context(), method, addr+path, nil)
		if err != nil {
			continue
		}
		resp, err := n.cfg.HTTPClient.Do(req)
		if err != nil {
			continue
		}
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr == nil && !each(id, resp.StatusCode, b) {
			return
		}
	}
}

// postJSON posts in (nil = empty body) to url and decodes a 200
// response into out (out may be nil; 204 leaves it zero).
func (n *Node) postJSON(url string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(http.MethodPost, url, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := n.cfg.HTTPClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return fmt.Errorf("cluster: POST %s: HTTP %d", url, resp.StatusCode)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// getJSON fetches url and decodes the 200 response into out.
func (n *Node) getJSON(url string, out any) error {
	resp, err := n.cfg.HTTPClient.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: GET %s: HTTP %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
