"""The three serving workloads (rationale in perfbench/README.md).

Rates are absolute and frozen, so every commit sees the same offered load.
"""

from dataclasses import dataclass

LADDER_STEP = 1.15   # rung to rung; one rung of noise moves the answer 15%
LADDER_RUNGS = 11    # 1.15^11 = 4.7x heavy


@dataclass(frozen=True)
class Workload:
    name: str
    topology: str              # "proxy": 2 servers behind the proxy; "direct"
    keys: int
    theta: float
    get_ratio: float
    vmin: int                  # value bytes, uniform in [vmin, vmax]
    vmax: int
    light: int                 # fixed rates, rps
    heavy: int
    capacity_mb: int = 64      # per server process
    shards: int = 1            # reactor threads per server

    @property
    def server_args(self):
        args = [f"--capacity-mb={self.capacity_mb}"]
        if self.shards > 1:
            # Round-robin placement: 4 connections split evenly over shards.
            args += [f"--threads={self.shards}", "--force-dispatch"]
        return args

    @property
    def evicts(self):
        """Whether the key space outgrows the store, so keys get evicted."""
        mean_item = (self.vmin + self.vmax) / 2 + 64
        return self.keys * mean_item > self.capacity_mb * 2**20

    def stream_args(self, seed):
        """The driver's <stream> fields for one op stream."""
        return (f"keys={self.keys} theta={self.theta} get={self.get_ratio} "
                f"vmin={self.vmin} vmax={self.vmax} seed={seed}")


WORKLOADS = {
    w.name: w for w in [
        Workload(name="proxy_zipf_read", topology="proxy",
                 keys=100_000, theta=0.99, get_ratio=0.9, vmin=100, vmax=100,
                 light=10_000, heavy=20_000),
        Workload(name="direct_sharded_uniform", topology="direct", shards=2,
                 keys=100_000, theta=0.0, get_ratio=0.9, vmin=100, vmax=100,
                 light=100_000, heavy=200_000),
        Workload(name="direct_evict_write", topology="direct", capacity_mb=32,
                 keys=200_000, theta=0.9, get_ratio=0.5, vmin=256, vmax=4096,
                 light=50_000, heavy=150_000),
    ]
}


@dataclass(frozen=True)
class Plan:
    """How one run of `seconds` splits into timed windows."""
    warmup_s: float
    sub_windows: int       # per fixed-rate phase
    sub_window_s: float
    rung_windows: int      # per ladder rung
    rung_window_s: float
    setups: int = 5


def plan_for(seconds):
    """Fixed phases: 16 windows of seconds/80 each; rungs: 5 of seconds/120."""
    return Plan(warmup_s=max(1.0, 0.07 * seconds), sub_windows=16,
                sub_window_s=seconds / 80, rung_windows=5,
                rung_window_s=seconds / 120)
