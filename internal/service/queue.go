package service

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"varpower/internal/obs"
	"varpower/internal/parallel"
	"varpower/internal/telemetry"
)

// Queue telemetry: depth and capacity gauges (the backpressure dashboard
// pair), rejected submissions, and per-state job counters.
var (
	mQueueDepth = telemetry.Default().Gauge("varpower_queue_depth",
		"Jobs waiting in the varpowerd run queue.", nil)
	mQueueCapacity = telemetry.Default().Gauge("varpower_queue_capacity",
		"Capacity of the varpowerd run queue.", nil)
	mQueueRejected = telemetry.Default().Counter("varpower_queue_rejected_total",
		"Job submissions rejected with 429 because the queue was full.", nil)
	mJobsDone = telemetry.Default().Counter("varpower_jobs_total",
		"Jobs finished by the varpowerd executors, by terminal state.",
		telemetry.Labels{"state": "done"})
	mJobsFailed = telemetry.Default().Counter("varpower_jobs_total",
		"Jobs finished by the varpowerd executors, by terminal state.",
		telemetry.Labels{"state": "failed"})
	mJobSeconds = telemetry.Default().Histogram("varpower_job_seconds",
		"Wall-clock execution time of varpowerd jobs.", nil, nil)
	// mQueueRejectedWait records the Retry-After estimate handed to each
	// rejected (429) submission. Accepted jobs never wait in-handler — the
	// queue is take-a-slot-or-shed — so this histogram is the only latency
	// signal shed load produces, and what lets SLO burn see it.
	mQueueRejectedWait = telemetry.Default().Histogram("varpower_queue_rejected_wait_seconds",
		"Retry-After estimate (seconds) returned with rejected job submissions.",
		telemetry.ExpBuckets(1, 2, 10), nil)
)

// job is one queued run and its mutable status.
type job struct {
	id  string
	req SolveRequest
	// ref carries the admission request's trace context across the async
	// boundary, so the executor's spans land in the same trace.
	ref obs.Ref

	mu     sync.Mutex
	state  JobState
	result *JobResult
	err    string
}

// status snapshots the job as the API's JobStatus.
func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{ID: j.id, State: j.state, Request: j.req, Result: j.result, Error: j.err}
}

// setRunning transitions queued → running.
func (j *job) setRunning() {
	j.mu.Lock()
	j.state = JobRunning
	j.mu.Unlock()
}

// finish records the terminal state.
func (j *job) finish(res *JobResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err != nil {
		j.state = JobFailed
		j.err = err.Error()
		mJobsFailed.Inc()
		return
	}
	j.state = JobDone
	j.result = res
	mJobsDone.Inc()
}

// ErrQueueFull reports a rejected submission together with the backpressure
// hint the handler turns into a Retry-After header.
type ErrQueueFull struct{ RetryAfter int }

// Error implements error.
func (e ErrQueueFull) Error() string {
	return fmt.Sprintf("service: job queue full, retry after %ds", e.RetryAfter)
}

// ErrDraining reports a submission during graceful shutdown.
var ErrDraining = fmt.Errorf("service: draining, not accepting new jobs")

// jobQueue is the bounded run queue: submissions either take a slot
// immediately or are rejected with a Retry-After estimate — the executors
// never block a submitter, and a full queue sheds load instead of growing an
// unbounded backlog. Execution happens on a fixed pool of workers driven
// through internal/parallel (panic capture, per-task telemetry).
type jobQueue struct {
	ch   chan *job
	run  func(*job) // executes one job; set by the server
	done chan struct{}

	mu       sync.Mutex
	jobs     map[string]*job
	seq      int
	draining bool

	// avgNanos is an EMA of job execution time, feeding the Retry-After
	// estimate. Stored as float64 bits for atomic access.
	avgNanos atomic.Uint64
	workers  int
}

// newJobQueue builds a queue of the given capacity and worker count.
func newJobQueue(capacity, workers int) *jobQueue {
	if capacity < 1 {
		capacity = 1
	}
	if workers < 1 {
		workers = 1
	}
	mQueueCapacity.Set(float64(capacity))
	return &jobQueue{
		ch:      make(chan *job, capacity),
		done:    make(chan struct{}),
		jobs:    make(map[string]*job),
		workers: workers,
	}
}

// start launches the executor pool. The workers run as one internal/parallel
// fan-out of `workers` long-lived tasks, each draining the channel until it
// closes — jobs inherit the engine's panic capture and task telemetry, and
// the pool exits exactly when the queue is drained.
func (q *jobQueue) start() {
	go func() {
		defer close(q.done)
		_, _ = parallel.Map(context.Background(), q.workers, q.workers, func(_ context.Context, _ int) (struct{}, error) {
			for j := range q.ch {
				mQueueDepth.Set(float64(len(q.ch)))
				j.setRunning()
				start := time.Now()
				q.run(j)
				secs := time.Since(start).Seconds()
				mJobSeconds.Observe(secs)
				q.observeJobTime(secs)
			}
			return struct{}{}, nil
		})
	}()
}

// observeJobTime folds one execution time into the EMA.
func (q *jobQueue) observeJobTime(secs float64) {
	const alpha = 0.3
	for {
		old := q.avgNanos.Load()
		prev := math.Float64frombits(old)
		next := secs
		if prev > 0 {
			next = alpha*secs + (1-alpha)*prev
		}
		if q.avgNanos.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfter estimates (in whole seconds, ≥ 1) how long until a queue slot
// frees: the backlog's expected drain time across the worker pool.
func (q *jobQueue) retryAfter() int {
	avg := math.Float64frombits(q.avgNanos.Load())
	if avg <= 0 {
		return 1
	}
	est := math.Ceil(float64(len(q.ch)+1) * avg / float64(q.workers))
	if est < 1 {
		return 1
	}
	if est > 600 {
		return 600
	}
	return int(est)
}

// submit enqueues a run, returning its job handle, ErrDraining during
// shutdown, or ErrQueueFull with the Retry-After hint.
func (q *jobQueue) submit(req SolveRequest, ref obs.Ref) (*job, error) {
	q.mu.Lock()
	if q.draining {
		q.mu.Unlock()
		return nil, ErrDraining
	}
	q.seq++
	j := &job{id: fmt.Sprintf("j-%d", q.seq), req: req, ref: ref, state: JobQueued}
	// Reserve the slot while holding the lock so draining and enqueueing
	// cannot interleave around the channel close.
	select {
	case q.ch <- j:
		q.jobs[j.id] = j
	default:
		q.seq-- // rejected submissions do not consume an id
		q.mu.Unlock()
		mQueueRejected.Inc()
		ra := q.retryAfter()
		mQueueRejectedWait.Observe(float64(ra))
		return nil, ErrQueueFull{RetryAfter: ra}
	}
	q.mu.Unlock()
	mQueueDepth.Set(float64(len(q.ch)))
	return j, nil
}

// get looks up a job by id.
func (q *jobQueue) get(id string) (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// depth returns the number of queued (not yet running) jobs.
func (q *jobQueue) depth() int { return len(q.ch) }

// drain stops intake and waits for queued and in-flight jobs to finish, up
// to ctx's deadline. Safe to call once.
func (q *jobQueue) drain(ctx context.Context) error {
	q.mu.Lock()
	already := q.draining
	q.draining = true
	q.mu.Unlock()
	if !already {
		close(q.ch)
	}
	select {
	case <-q.done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("service: drain: %w", ctx.Err())
	}
}
