"""Operation lists of the three workloads.

Box shapes and nomes are fixed, because they set the amount of work.  Only
the couplings g come from the seed: it orders a pool of couplings, and pass
k uses the k-th one for every box.  So no two operations of a process share
(n, m, g): the Macdonald oracle keeps a module-global matrix cache keyed by
(q, t), and a repeated point would run far faster than a CLI user, who
starts a fresh process per call, ever sees.

The pool holds the couplings, among seeded draws from G_RANGE, at which
every operation of every workload passes its checks (screen.py finds them).
Free draws would not do: joint_diagonalize fails its residual tolerance at
isolated couplings, a few per cent of draws at N = 252, so the count of
failed operations would change from run to run.
"""

import random
from dataclasses import dataclass

# where screen.py draws candidates; verify passed at every box below for g
# on 0.4..2.4 (scanned in steps of 0.2)
G_RANGE = (0.6, 1.6)

# the 40 couplings kept among the 44 candidates of screen.py; a run
# makes at most len(G_POOL) passes
G_POOL = (
    0.9814989379240225, 1.4277056977549325, 0.935486224945349, 1.5281429016407535,
    0.8079729521298837, 0.8691114298946865, 1.586684687383441, 0.7446425621792834,
    1.2348951140984246, 1.3774686444842525, 1.1940342804512536, 1.3293690980924997,
    1.4861114970197398, 1.036164591161413, 1.101332577884592, 1.1317389632525248,
    0.6492999801244009, 1.4421231736407951, 1.0592978262105834, 1.0501647334214859,
    0.7993698477814024, 0.9340889354948828, 0.8047808388900884, 0.7560859557619474,
    0.8656446262167917, 1.0133529323913746, 1.3099122754635109, 0.7673432029742597,
    1.3111125580824687, 1.3557486647038623, 0.6690304262762709, 0.8638187072322088,
    0.8676597766093492, 1.5244693362796329, 1.2785034524076884, 0.7859122351246085,
    1.235601519667561, 0.7775666259007987, 1.2412979544183136, 1.303691552474358,
)

SWEEP_STEP = 0.05

# (n, m, p): boxes with n <= 4 and N = C(n+m, n) from 5 to 55, |p| <= 0.6.
# (4, 2) is the costly one: the oracle takes over 90% of its time.
VERIFY_BOXES = [
    (1, 8, 0.6),
    (2, 2, 0.3),
    (3, 2, -0.2),
    (2, 3, 0.5),
    (4, 1, -0.45),
    (3, 3, 0.4),
    (2, 5, -0.4),
    (2, 6, 0.6),
    (2, 9, -0.3),
    (4, 2, 0.2),
    # fails at every coupling: the oracle's triangular solve hits an eigenvalue
    # collision between (4, 2, 2) and (3, 3, 1, 1); counted as a failed operation
    (3, 4, 0.3),
]

# N = 35, 45, 56, 84, 126, 210, 252, all labeled at one nonzero nome
LABEL_BOXES = [(3, 4), (2, 8), (3, 5), (3, 6), (4, 5), (4, 6), (5, 5)]
LABEL_P = 0.3

# (n, m, p_stop): sweeps from p = 0 in steps of SWEEP_STEP, 13 points each.
SWEEP_BOXES = [(3, 4, 0.6), (3, 5, -0.6), (4, 4, 0.6), (3, 6, -0.6), (4, 5, 0.6), (5, 4, -0.6)]

WORKLOADS = ("verify", "label", "sweep")

# (command, n, m) of the one operation allowed to fail: its report must show
# the oracle collision and nothing else (checks.check_known_failure)
KNOWN_FAILURE = ("verify", 3, 4)


@dataclass(frozen=True)
class Op:
    """One CLI call and the inputs its output is checked against."""

    command: str
    n: int
    m: int
    g: float
    p_values: tuple

    @property
    def known_to_fail(self) -> bool:
        return (self.command, self.n, self.m) == KNOWN_FAILURE

    def argv(self) -> list:
        args = [self.command, "--n", str(self.n), "--m", str(self.m), "--g", repr(self.g)]
        if len(self.p_values) == 1:
            return args + ["--p", repr(self.p_values[0])]
        return args + [
            "--p-start", repr(self.p_values[0]),
            "--p-stop", repr(self.p_values[-1]),
            "--p-step", repr(SWEEP_STEP),
        ]


def sweep_grid(p_stop: float) -> tuple:
    """Nomes 0, ±0.05, ..., p_stop, rounded as the CLI rounds them."""
    count = round(abs(p_stop) / SWEEP_STEP)
    sign = 1.0 if p_stop >= 0 else -1.0
    return (0.0,) + tuple(round(sign * k * SWEEP_STEP, 12) for k in range(1, count + 1))


def coupling_order(seed: int) -> list:
    """The pool of couplings in the order the seed gives; pass k uses entry k."""
    order = list(G_POOL)
    random.Random(seed).shuffle(order)
    return order


def make_pass(workload: str, g: float) -> list:
    """The fixed list of operations of one pass, all at coupling g."""
    if workload == "verify":
        return [Op("verify", n, m, g, (p,)) for n, m, p in VERIFY_BOXES]
    if workload == "label":
        return [Op("spectrum", n, m, g, (LABEL_P,)) for n, m in LABEL_BOXES]
    if workload == "sweep":
        return [Op("spectrum", n, m, g, sweep_grid(p_stop)) for n, m, p_stop in SWEEP_BOXES]
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")


def warmup_op(workload: str, g: float) -> Op:
    """A tiny untimed call on a box no pass uses, so first-call costs stay out of pass 1."""
    command = "verify" if workload == "verify" else "spectrum"
    return Op(command, 1, 1, g, (0.1,))
