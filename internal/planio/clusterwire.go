package planio

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// ClusterFormatVersion versions the coordinator/worker control documents
// independently of the job wire.
const ClusterFormatVersion = 1

// clusterwire.go carries the coordinator/worker control-plane documents.
// The data plane needs no new schema: a coordinator dispatches work to
// workers as ordinary /v1/jobs submissions using the existing Request and
// Result documents, so a worker is just a stubbyd that also registers and
// heartbeats. Control documents follow the same conventions as the job
// wire: versioned JSON with unknown fields rejected on the server side.

// RegisterRequest announces a worker to a coordinator. URL is the base URL
// the coordinator should dispatch jobs to (e.g. "http://10.0.0.7:8080").
// ID is empty on first registration; a worker re-registering after a
// coordinator restart or missed heartbeats sends its previous ID so the
// coordinator can keep its identity stable in logs and stats.
type RegisterRequest struct {
	Version int    `json:"version"`
	URL     string `json:"url"`
	ID      string `json:"id,omitempty"`
}

// RegisterResponse acknowledges a registration: the worker's assigned ID
// and the lease TTL. A worker whose heartbeats stay within TTLMS holds its
// leases; one that goes silent longer is considered dead and its in-flight
// jobs are re-dispatched.
type RegisterResponse struct {
	ID    string `json:"id"`
	TTLMS int64  `json:"ttlMS"`
}

// HeartbeatRequest renews a worker's lease and reports the store counters
// the coordinator aggregates cluster-wide: ClaimHits (optimizations this
// worker skipped because another replica's publish answered its claim
// wait) and Computes (optimizations this worker actually ran).
type HeartbeatRequest struct {
	Version   int    `json:"version"`
	ID        string `json:"id"`
	ClaimHits uint64 `json:"claimHits,omitempty"`
	Computes  uint64 `json:"computes,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat. OK is false when the
// coordinator does not know the worker (it restarted, or the worker's
// lease already expired); the worker must re-register.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// WorkerDoc describes one registered worker in /v1/cluster/workers.
type WorkerDoc struct {
	ID         string `json:"id"`
	URL        string `json:"url"`
	Live       bool   `json:"live"`
	Leases     int    `json:"leases"`
	LastBeatMS int64  `json:"lastBeatMS"`
}

// WorkersResponse is the /v1/cluster/workers listing.
type WorkersResponse struct {
	Workers []WorkerDoc `json:"workers"`
}

// decodeStrict parses one control or job-wire document into `into`,
// rejecting unknown fields.
func decodeStrict(data []byte, kind string, into any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("planio: parse %s: %w", kind, err)
	}
	return nil
}

// EncodeRegisterRequest renders a registration announcement.
func EncodeRegisterRequest(r *RegisterRequest) ([]byte, error) {
	r.Version = ClusterFormatVersion
	return json.Marshal(r)
}

// DecodeRegisterRequest parses a registration announcement, rejecting
// unknown fields and version mismatches like the job wire does.
func DecodeRegisterRequest(data []byte) (*RegisterRequest, error) {
	var r RegisterRequest
	if err := decodeStrict(data, "register request", &r); err != nil {
		return nil, err
	}
	if r.Version != ClusterFormatVersion {
		return nil, fmt.Errorf("planio: register request: version %d, want %d", r.Version, ClusterFormatVersion)
	}
	if r.URL == "" {
		return nil, fmt.Errorf("planio: register request: missing url")
	}
	return &r, nil
}

// EncodeHeartbeatRequest renders a lease renewal.
func EncodeHeartbeatRequest(h *HeartbeatRequest) ([]byte, error) {
	h.Version = ClusterFormatVersion
	return json.Marshal(h)
}

// DecodeHeartbeatRequest parses a lease renewal.
func DecodeHeartbeatRequest(data []byte) (*HeartbeatRequest, error) {
	var h HeartbeatRequest
	if err := decodeStrict(data, "heartbeat request", &h); err != nil {
		return nil, err
	}
	if h.Version != ClusterFormatVersion {
		return nil, fmt.Errorf("planio: heartbeat request: version %d, want %d", h.Version, ClusterFormatVersion)
	}
	if h.ID == "" {
		return nil, fmt.Errorf("planio: heartbeat request: missing id")
	}
	return &h, nil
}
