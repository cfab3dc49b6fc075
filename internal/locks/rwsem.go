package locks

import "sync"

// RWSem is the reader/writer semaphore of mmap_sem (§4.1), FaultLock's
// fault lock (§5.1) and Hybrid's tree lock (§5.2): sync.RWMutex, whose
// writer preference is the kernel rw_semaphore's — once a writer waits,
// new readers queue behind it, so one mapping operation delays every
// page fault (Figure 2). The VM names sync.RWMutex directly; the alias
// stays because the benchmark's locks.rwsem_rlock_ns probe names it.
type RWSem = sync.RWMutex
