package main

import (
	"context"
	"crypto/rsa"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"smatch/internal/client"
	"smatch/internal/cluster"
	"smatch/internal/core"
	"smatch/internal/dataset"
	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/oprf"
	"smatch/internal/profile"
	"smatch/internal/server"
	"smatch/internal/wal"
	"smatch/internal/wire"
)

// Production parameters: the RSA-OPRF modulus a deployed server
// generates, and the scheme's defaults (k = 64 bits, theta = 8, top-5)
// with the default 2048-bit verification group.
const (
	oprfBits = 2048
	topK     = core.DefaultTopK
	theta    = 8
	// The routed workload's cluster: two store nodes, with enough
	// partitions that rendezvous placement gives each node some.
	storeNodes  = 2
	partitions  = 4
	dialTimeout = 10 * time.Second
	reqTimeout  = 10 * time.Second
)

// node is one in-process store node: TLS listener, service handlers and
// a write-ahead log with fsync and group commit on.
type node struct {
	srv     *server.Server
	journal *server.Journal
	reg     *metrics.Registry // server and WAL counters
	addr    string
	stop    func()
}

// deployment is one set-up system: the population, the nodes, and every
// sealed entry.
type deployment struct {
	ds    *dataset.Dataset
	sys   *core.System
	addr  string // where load is sent: the node, or the router
	nodes []*node
	// router is set on the routed workload; routerWrites counts its
	// upstream writes when tracing.
	router       *node
	routerWrites *writeCounter
	// blobs[i] are user i's sealed Auth blobs over one chain; entries[i]
	// is the record stored in set-up (blob 0).
	entries []match.Entry
	blobs   [][][]byte
}

// deviceSecret is user id's device randomness under workload seed: it
// fixes the user's entropy mapping and chain order, and so their sealed
// ciphertexts.
func deviceSecret(seed uint64, id profile.ID) []byte {
	return []byte(fmt.Sprintf("e2ebench-device-%d-%d", seed, id))
}

// deploy builds the population, starts the nodes with the OPRF key,
// seals every user with the real client pipeline (the OPRF round goes
// over the wire) and bulk-loads the entries with UploadBatch.
func deploy(cfg config, key *rsa.PrivateKey, dir string, tr *tracer) (_ *deployment, err error) {
	// The population is the canonical Weibo stand-in, the same for every
	// seed. Its bucket structure sets how many results each query returns
	// and so how many Vf calls a join session makes. Drawn from the seed,
	// 300-user populations moved join's median session latency by more
	// than a quarter from one seed to the next.
	dep := &deployment{ds: dataset.WeiboSeeded(cfg.users, dataset.WeiboSeed)}
	defer func() {
		if err != nil {
			dep.close()
		}
	}()
	oprfSrv, err := oprf.NewServerFromKey(key)
	if err != nil {
		return nil, err
	}
	if cfg.workload == "routed" {
		if err := dep.startCluster(oprfSrv, dir, tr); err != nil {
			return nil, err
		}
	} else {
		n, err := startNode(oprfSrv, filepath.Join(dir, "node"), tr, fromClient)
		if err != nil {
			return nil, err
		}
		dep.nodes = []*node{n}
		dep.addr = n.addr
	}

	workers := runtime.NumCPU()
	conns := make([]*client.Conn, workers)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i := range conns {
		if conns[i], err = client.Dial(dep.addr, client.Options{Timeout: reqTimeout}); err != nil {
			return nil, err
		}
	}
	pk, err := conns[0].OPRFPublicKey()
	if err != nil {
		return nil, err
	}
	dep.sys, err = core.NewSystem(dep.ds.Schema, dep.ds.EmpiricalDist(), core.Params{Theta: theta, TopK: topK}, pk, nil)
	if err != nil {
		return nil, err
	}
	if err := dep.seal(conns, cfg.seed, cfg.blobs()); err != nil {
		return nil, err
	}
	for lo := 0; lo < len(dep.entries); lo += wire.MaxUploadBatch {
		hi := min(lo+wire.MaxUploadBatch, len(dep.entries))
		if _, err := conns[0].UploadBatch(dep.entries[lo:hi]); err != nil {
			return nil, fmt.Errorf("bulk load: %w", err)
		}
	}
	return dep, nil
}

// seal runs PrepareUpload for every user on one worker per conn, plus
// extra Auth blobs over the same key.
func (dep *deployment) seal(conns []*client.Conn, seed uint64, blobs int) error {
	n := len(dep.ds.Profiles)
	dep.entries = make([]match.Entry, n)
	dep.blobs = make([][][]byte, n)
	errs := make([]error, len(conns))
	var wg sync.WaitGroup
	for w, conn := range conns {
		wg.Add(1)
		go func(w int, conn *client.Conn) {
			defer wg.Done()
			for i := w; i < n; i += len(conns) {
				p := dep.ds.Profiles[i]
				dev, err := dep.sys.NewClient(conn, deviceSecret(seed, p.ID))
				if err != nil {
					errs[w] = err
					return
				}
				e, key, err := dev.PrepareUpload(p)
				if err != nil {
					errs[w] = fmt.Errorf("seal user %d: %w", p.ID, err)
					return
				}
				dep.entries[i] = e
				dep.blobs[i] = [][]byte{e.Auth}
				for len(dep.blobs[i]) < blobs {
					auth, err := dev.Auth(key, p.ID)
					if err != nil {
						errs[w] = fmt.Errorf("seal user %d: %w", p.ID, err)
						return
					}
					dep.blobs[i] = append(dep.blobs[i], auth)
				}
			}
		}(w, conn)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// startNode opens a WAL-backed store node and serves it on loopback TLS.
// With a tracer, its query, upload and OPRF handlers and its journal are
// wrapped; handler spans take their parent from links at level from.
func startNode(oprfSrv *oprf.Server, dir string, tr *tracer, from level) (*node, error) {
	reg := metrics.New()
	journal, store, _, err := server.OpenJournal(wal.Options{Dir: dir, Metrics: reg})
	if err != nil {
		return nil, err
	}
	cfg := server.Config{OPRF: oprfSrv, Store: store, Journal: journal, Metrics: reg}
	if tr != nil {
		cfg.ServiceJournal = tracedJournal{t: tr, j: journal}
	}
	srv, err := server.New(cfg)
	if err != nil {
		journal.Close()
		return nil, err
	}
	if tr != nil {
		wrap(srv, tr, wire.TypeQueryReq, "service.query", from, 0, opQuery)
		wrap(srv, tr, wire.TypeUploadReq, "service.upload", from, fromService, opUpload)
		wrap(srv, tr, wire.TypeOPRFReq, "oprf.eval", fromClient, 0, opOPRF)
	}
	n, err := serve(srv)
	if err != nil {
		journal.Close()
		return nil, err
	}
	n.journal, n.reg = journal, reg
	return n, nil
}

func wrap(srv *server.Server, tr *tracer, t wire.MsgType, name string, from, to level, op opKind) {
	svc := srv.Service()
	svc.Register(t, tr.wrapHandler(name, from, to, op, svc.Handler(t)))
}

// serve listens on an ephemeral loopback port and serves until stopped.
func serve(srv *server.Server) (*node, error) {
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	return &node{srv: srv, addr: addr.String(), stop: func() {
		cancel()
		<-done
	}}, nil
}

// startCluster starts the partition nodes and the fan-out router in
// front of them. The router holds no store; it forwards uploads and
// queries and answers the OPRF round itself.
func (dep *deployment) startCluster(oprfSrv *oprf.Server, dir string, tr *tracer) error {
	nodes := make([]cluster.Node, storeNodes)
	for i := range nodes {
		n, err := startNode(oprfSrv, filepath.Join(dir, fmt.Sprintf("node-%d", i)), tr, fromRouter)
		if err != nil {
			return err
		}
		dep.nodes = append(dep.nodes, n)
		nodes[i] = cluster.Node{ID: fmt.Sprintf("node-%d", i), Addr: n.addr}
	}
	pm, err := cluster.NewMap(partitions, nodes)
	if err != nil {
		return err
	}
	owners := make(map[string]bool)
	for p := uint32(0); p < pm.NumPartitions; p++ {
		owners[pm.Owner(p).ID] = true
	}
	if len(owners) != len(nodes) {
		return fmt.Errorf("partition map places %d partitions on %d of %d nodes", pm.NumPartitions, len(owners), len(nodes))
	}
	opts := client.Options{Timeout: reqTimeout}
	if tr != nil {
		dep.routerWrites = &writeCounter{}
		opts.Dialer = dep.routerWrites.dial
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Map: pm, ClientOptions: opts})
	if err != nil {
		return err
	}
	rsrv, err := server.New(server.Config{OPRF: oprfSrv, RemoteSubscriber: rt.Subscribe})
	if err != nil {
		rt.Close()
		return err
	}
	rt.Register(rsrv)
	if tr != nil {
		wrap(rsrv, tr, wire.TypeQueryReq, "router.query", fromClient, fromRouter, opQuery)
		wrap(rsrv, tr, wire.TypeUploadReq, "router.upload", fromClient, fromRouter, opUpload)
		wrap(rsrv, tr, wire.TypeOPRFReq, "oprf.eval", fromClient, 0, opOPRF)
	}
	r, err := serve(rsrv)
	if err != nil {
		rt.Close()
		return err
	}
	stopServer := r.stop
	r.stop = func() {
		stopServer()
		rt.Close()
	}
	dep.router, dep.addr = r, r.addr
	return nil
}

// close stops the router, then the nodes, and closes their logs.
func (dep *deployment) close() {
	if dep.router != nil {
		dep.router.stop()
	}
	for _, n := range dep.nodes {
		n.stop()
		n.journal.Close()
	}
}

// walCounts sums appended records and fsyncs over every node's log.
func (dep *deployment) walCounts() (records, fsyncs uint64) {
	for _, n := range dep.nodes {
		records += n.reg.WALAppends.Load()
		fsyncs += n.reg.WALFsyncs.Load()
	}
	return records, fsyncs
}

// bucketMean is the mean bucket size across the store nodes.
func (dep *deployment) bucketMean() float64 {
	var users, buckets int
	for _, n := range dep.nodes {
		st := n.srv.Store().BucketStats()
		users += st.Users
		buckets += st.Buckets
	}
	if buckets == 0 {
		return 0
	}
	return float64(users) / float64(buckets)
}

// reference is the expected behaviour, computed in process from the
// sealed entries and the plaintext profiles.
type reference struct {
	index map[profile.ID]int
	// want[i] is user i's top-k answer from an in-process match.Server
	// holding the same entries.
	want [][]profile.ID
	// truth[i] is user i's Definition-3 ground truth: every other user
	// within distance theta.
	truth []map[profile.ID]bool
}

func newReference(dep *deployment) (*reference, error) {
	ps := dep.ds.Profiles
	ref := &reference{index: make(map[profile.ID]int, len(ps)), want: make([][]profile.ID, len(ps)), truth: make([]map[profile.ID]bool, len(ps))}
	store := match.NewServer()
	for i, e := range dep.entries {
		ref.index[e.ID] = i
		if err := store.Upload(e); err != nil {
			return nil, err
		}
	}
	for i, p := range ps {
		res, err := store.Match(p.ID, topK)
		if err != nil {
			return nil, err
		}
		for _, r := range res {
			ref.want[i] = append(ref.want[i], r.ID)
		}
		ref.truth[i] = make(map[profile.ID]bool)
		for _, v := range ps {
			if v.ID == p.ID {
				continue
			}
			if ok, err := profile.Close(p, v, theta); err == nil && ok {
				ref.truth[i][v.ID] = true
			}
		}
	}
	return ref, nil
}

// check compares an answer with the reference: the same IDs in the same
// order. It returns a description of the first difference, or "".
func (ref *reference) check(i int, got []match.Result) string {
	want := ref.want[i]
	if len(got) != len(want) {
		return fmt.Sprintf("user index %d: %d results, want %d", i, len(got), len(want))
	}
	for j, r := range got {
		if r.ID != want[j] {
			return fmt.Sprintf("user index %d: result %d is user %d, want %d", i, j, r.ID, want[j])
		}
	}
	return ""
}

// score counts the answer's true positives against user i's ground truth.
func (ref *reference) score(i int, got []match.Result) (tp, truth int) {
	for _, r := range got {
		if ref.truth[i][r.ID] {
			tp++
		}
	}
	return tp, len(ref.truth[i])
}
