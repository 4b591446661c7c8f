// Fixture: check 2 (lock-cycle). Two inconsistent acquisition orders
// across classes form a cycle in the lock-order graph; a helper that
// re-acquires a mutex the caller already holds is a self-deadlock.
// The finding anchors at the acquisition that closes the cycle.

struct Mutex {
  void Lock();
  void Unlock();
};

struct MutexLock {
  explicit MutexLock(Mutex& mu);
};

class Beta;

class Alpha {
 public:
  void TakeBoth();
  void TakeMineOnly();

  Mutex mu_;
  Beta* beta_ = nullptr;
};

class Beta {
 public:
  void TakeBoth();

  Mutex mu_;
  Alpha* alpha_ = nullptr;
};

// Acquires Alpha::mu_ then Beta::mu_ ...
void Alpha::TakeBoth() {
  MutexLock own(mu_);
  MutexLock other(beta_->mu_);  // ANALYZE-EXPECT: lock-cycle
}

// ... while this path acquires Beta::mu_ then Alpha::mu_: a cycle.
void Beta::TakeBoth() {
  MutexLock own(mu_);
  MutexLock other(alpha_->mu_);
}

// Negative: a single-lock method participates in no cycle.
void Alpha::TakeMineOnly() {
  MutexLock own(mu_);
}

// Interprocedural self-deadlock: Outer holds Table::mu_ and calls
// Inner, which acquires Table::mu_ again.
class Table {
 public:
  void Outer() {
    MutexLock lock(mu_);
    Inner();  // ANALYZE-EXPECT: lock-cycle
  }
  void Inner() {
    MutexLock lock(mu_);
  }

  // Negative: consistent ordering with a second lock is fine.
  void Ordered() {
    MutexLock a(mu_);
    MutexLock b(aux_);
  }
  void OrderedAgain() {
    MutexLock a(mu_);
    MutexLock b(aux_);
  }

 private:
  Mutex mu_;
  Mutex aux_;
};

// Virtual dispatch: a call through an interface pointer resolves to the
// overrides in the interface's subclasses, never to an unrelated
// class's method that merely shares the name.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void Drain() = 0;
  virtual void Reset() = 0;
};

class Owner {
 public:
  // Positive: Owner::mu_ -> LockedSink::mu_ through the Drain override,
  // while LockedSink::Report takes them the other way round.
  void Flush() {
    MutexLock lock(mu_);
    sink_->Drain();
  }
  // Negative: Reset dispatches to Sink's subclasses only, so no edge to
  // Registry::mu_ (whose Export holds it while taking Owner::mu_).
  void Clear() {
    MutexLock lock(mu_);
    sink_->Reset();
  }
  void Touch() { MutexLock lock(mu_); }

  Mutex mu_;
  Sink* sink_ = nullptr;
};

class LockedSink : public Sink {
 public:
  void Drain() override { MutexLock lock(mu_); }
  void Reset() override {}
  void Report() {
    MutexLock lock(mu_);
    owner_->Touch();  // ANALYZE-EXPECT: lock-cycle
  }

  Mutex mu_;
  Owner* owner_ = nullptr;
};

class Registry {
 public:
  void Reset() { MutexLock lock(mu_); }
  void Export() {
    MutexLock lock(mu_);
    owner_->Touch();
  }

  Mutex mu_;
  Owner* owner_ = nullptr;
};
