package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"

	"ltephy/internal/phy/interleave"
	"ltephy/internal/phy/modulation"
	"ltephy/internal/phy/workspace"
	"ltephy/internal/rng"
	"ltephy/internal/uplink"
)

// Span names. Stage spans are taken around UserJob.Init and each
// Stages()[i].RunBatch/Run; kernel spans are replays (see replayer).
const (
	spSubframe = iota
	spInit
	spChanEst
	spWeights
	spCombine
	spBackend
	spDeinterleave
	spDemap
	spEVM
	spDecodeTB
	spFrame
	spEncode
	spWrite
	spAckWait
	spDecodeFrame
	spAdmission
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"subframe", "init", "chanest", "weights", "combine_despread", "backend",
	"deinterleave", "demap", "evm", "decode_tb",
	"frame", "encode", "write", "ack-wait", "decode_frame", "admission_decide",
}

const (
	numStages  = 5 // init + the four Stages()
	numKernels = 4 // deinterleave, demap, evm, decode_tb
)

type span struct {
	start, end int64
	parent     int32
	sf         int32
	name       uint8
	tid        uint8
}

// tracer keeps the benchmark's own spans in a slice allocated before the
// traced run and writes them once, at exit. Slots are claimed with one atomic
// add, so the wire generator's sender and ack-reader goroutines share it.
type tracer struct {
	spans []span
	n     atomic.Int64
}

func newTracer(capacity int) *tracer { return &tracer{spans: make([]span, capacity)} }

// add records a span and returns its id (-1 when the tracer is nil or full).
func (t *tracer) add(name, tid uint8, parent, sf int32, start, end int64) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1
	}
	t.spans[i] = span{start: start, end: end, parent: parent, sf: sf, name: name, tid: tid}
	return int32(i)
}

func (t *tracer) recorded() int { return int(min(t.n.Load(), int64(len(t.spans)))) }

// writeChrome writes the spans as Chrome trace_event JSON (chrome://tracing,
// ui.perfetto.dev): complete events, one track per tid, with the span id, its
// parent's id and the subframe id in args.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprint(bw, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans[:t.recorded()] {
		if i > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"sf\":%d}}",
			spanNames[s.name], s.tid, float64(s.start)/1e3, float64(s.end-s.start)/1e3, i, s.parent, s.sf)
	}
	fmt.Fprint(bw, "\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer re-runs the backend's kernels through their public entry points
// right after a user's backend stage, so the backend span can be split into
// children. UserJob's despread symbols are private: deinterleave, demap and
// EVM therefore run on synthetic input — mapped random bits plus noise at the
// user's noise variance, of the user's exact length and scheme. decode_tb runs
// on a copy of the job's own soft bits.
type replayer struct {
	rc     uplink.ReceiverConfig
	syms   map[modulation.Scheme][]complex128
	blocks map[int]*interleave.Block
	deint  []complex128
	llr    []float64
	soft   []float64
	bits   []uint8
	sink   float64
}

func newReplayer(rc uplink.ReceiverConfig, pl *pool, seed uint64) *replayer {
	rp := &replayer{rc: rc, syms: map[modulation.Scheme][]complex128{}, blocks: map[int]*interleave.Block{}}
	longest := map[modulation.Scheme]int{}
	nv := map[modulation.Scheme]float64{}
	maxSyms, maxBits := 0, 0
	for i := range pl.entries {
		for _, u := range pl.entries[i].sf.Users {
			p := u.Params
			n := uplink.DataSymbolsPerSubframe * p.Layers * p.Subcarriers()
			longest[p.Mod] = max(longest[p.Mod], n)
			nv[p.Mod] = u.NoiseVar
			maxSyms = max(maxSyms, n)
			maxBits = max(maxBits, n*p.Mod.Bits())
			if rp.blocks[n] == nil {
				rp.blocks[n] = interleave.New(n, rc.InterleaverColumns)
			}
		}
	}
	r := rng.New(seed ^ 0x5eed)
	for mod, n := range longest {
		bits := make([]uint8, n*mod.Bits())
		for i := range bits {
			bits[i] = r.Bit()
		}
		syms := mod.Map(make([]complex128, 0, n), bits)
		for i := range syms {
			syms[i] += r.ComplexNormal(nv[mod])
		}
		rp.syms[mod] = syms
	}
	rp.deint = make([]complex128, maxSyms)
	rp.llr = make([]float64, maxBits)
	rp.soft = make([]float64, maxBits)
	rp.bits = make([]uint8, maxBits)
	return rp
}

// replay times the four kernels for the user job j just finished.
func (rp *replayer) replay(ws *workspace.Arena, j *uplink.UserJob) (d [numKernels]int64) {
	mod := j.U.Params.Mod
	f := j.Format()
	syms := rp.syms[mod][:f.Symbols]
	deint := rp.deint[:f.Symbols]
	soft := rp.soft[:f.TotalBits]
	copy(soft, j.SoftBits())
	nv := j.NoiseVar()

	t0 := now()
	interleave.Deinterleave(rp.blocks[f.Symbols], deint, syms)
	t1 := now()
	llr := mod.Demap(rp.llr[:0], deint, nv)
	t2 := now()
	evm := mod.EVM(deint)
	t3 := now()
	m := ws.Mark()
	_, _, halfIters := f.DecodeTransportBlockParams(rp.bits[:0], ws, soft, rp.rc.DecodeParams())
	ws.Release(m)
	t4 := now()

	rp.sink += evm + llr[0] + float64(halfIters)
	return [numKernels]int64{t1 - t0, t2 - t1, t3 - t2, t4 - t3}
}

// stagedRun holds per-subframe times (ns, summed over the subframe's users)
// from the benchmark's own stage-by-stage driver.
type stagedRun struct {
	stage  [numStages][]int64
	kernel [numKernels][]int64
	// sum is the five stage spans added up; wall runs from the first user's
	// Init to the last user's backend, gaps and result check included.
	sum, wall []int64
	failed    int
}

// merge appends a later chunk of the same measurement.
func (r *stagedRun) merge(o stagedRun) {
	for i := range r.stage {
		r.stage[i] = append(r.stage[i], o.stage[i]...)
	}
	for k := range r.kernel {
		r.kernel[k] = append(r.kernel[k], o.kernel[k]...)
	}
	r.sum, r.wall, r.failed = append(r.sum, o.sum...), append(r.wall, o.wall...), r.failed+o.failed
}

// runStaged drives every user of successive pool entries through Init and the
// four stages on one arena — the loop uplink.ProcessSubframe runs — with a
// span around each call. With rp it replays the backend kernels after each
// user and records them as children placed inside that backend span. check
// compares each result with the golden pass (off for the float32 path, whose
// numerics differ by design).
func runStaged(rc uplink.ReceiverConfig, pl *pool, dur int64, tr *tracer, rp *replayer, check bool) stagedRun {
	var run stagedRun
	ws := workspace.New()
	end := now() + dur
	for now() < end {
		e := pl.take()
		sfID := int32(len(run.sum))
		var st [numStages]int64
		var kn [numKernels]int64
		root := tr.add(spSubframe, 1, -1, sfID, 0, 0)
		first, last := int64(0), int64(0)
		ok := true
		for ui, u := range e.sf.Users {
			// A fresh job per user, as the scheduler does: the result's
			// payload escapes and must not be recycled.
			j := &uplink.UserJob{}
			m := ws.Mark()
			a := now()
			err := j.Init(ws, rc, u)
			b := now()
			if ui == 0 {
				first = a
			}
			if err != nil {
				ws.Release(m)
				ok = false
				continue
			}
			st[0] += b - a
			tr.add(spInit, 1, root, sfID, a, b)
			var backend int32
			var backendStart int64
			for si, s := range j.Stages() {
				tasks := s.Tasks(j)
				a = now()
				if bs, batch := s.(uplink.BatchStage); batch {
					bs.RunBatch(ws, j, 0, tasks)
				} else {
					for i := 0; i < tasks; i++ {
						s.Run(ws, j, i)
					}
				}
				b = now()
				st[1+si] += b - a
				backend, backendStart = tr.add(uint8(spChanEst+si), 1, root, sfID, a, b), a
			}
			last = b
			if check {
				res := j.Result()
				ok = ok && sameResult(&res, &e.golden[ui])
			}
			if rp != nil {
				d := rp.replay(ws, j)
				at := backendStart
				for k := range d {
					kn[k] += d[k]
					tr.add(uint8(spDeinterleave+k), 1, backend, sfID, at, at+d[k])
					at += d[k]
				}
			}
			ws.Release(m)
		}
		if root >= 0 {
			tr.spans[root].start, tr.spans[root].end = first, last
		}
		var sum int64
		for i := range st {
			run.stage[i] = append(run.stage[i], st[i])
			sum += st[i]
		}
		for k := range kn {
			run.kernel[k] = append(run.kernel[k], kn[k])
		}
		run.sum = append(run.sum, sum)
		run.wall = append(run.wall, last-first)
		if !ok {
			run.failed++
		}
	}
	return run
}
