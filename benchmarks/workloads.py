"""The benchmark's workloads: seeded task lists of real sympkit invocations.

Each workload is a closed loop with one client: the next task starts when
the previous one has exited.  The seed draws the tasks' parameters and
their order; the number of tasks of each type is fixed, so every seed does
the same kinds and amounts of work.  No task asks for more than two threads.

A builder returns its tasks in groups of like cost.  The order spreads each
group evenly over the run, so that drift in the machine's speed during a run
reaches every group alike.  The groups are also sized so that the median and
the tail rank (10 tasks beyond it) each fall inside a group of many like
tasks, never on the edge between two groups of different cost.  See
README.md in this directory for why each workload exists.
"""

import random
from fractions import Fraction

WORKLOADS = ("census", "families", "exact")

# families whose ceta task costs about the same as a bare interpreter start
CETA_FAMILIES = ("LeviB", "LeviP", "LeviQ", "Case5", "Case9")
# the l=3 families whose build takes seconds
HEAVY_FAMILIES = ("Case6", "Case7")
FAMILIES_ELL5 = ("LeviP", "LeviQ", "Hen", "Case5", "Case8", "Case9")
ALL_FAMILIES = ("LeviB", "LeviP", "LeviQ", "Hen",
                "Case5", "Case6", "Case7", "Case8", "Case9")


class Task:
    """One invocation: kind "cli" runs `sympkit ARGS --json`, kind "rou"
    calls hecke_l.rou_charpolys(ARGS) as a library function."""

    __slots__ = ("kind", "args", "threads", "csv")

    def __init__(self, kind, args, threads=None, csv=None):
        self.kind = kind
        self.args = list(args)
        self.threads = threads
        self.csv = csv
        if threads is not None:
            self.args += ["--threads", str(threads)]
        if csv is not None:
            self.args += ["--csv", csv]

    def label(self):
        return " ".join([self.kind] + self.args)


def _eta(rng):
    d = rng.randint(2, 12)
    return str(Fraction(rng.randint(1, d - 1), d))


def _threads(rng, count):
    "count thread settings, half of them 2 and the rest 1, in seeded order."
    out = [1] * (count - count // 2) + [2] * (count // 2)
    rng.shuffle(out)
    return out


def census_tasks(rng, out_dir):
    "Groups: census (12, 3 writing a CSV), ceta gsp4 (6), ceta sp4 (6)."
    census = []
    csv_slots = set(rng.sample(range(12), 3))
    for k, t in enumerate(_threads(rng, 12)):
        csv = "%s/census-%d.csv" % (out_dir, k) if k in csv_slots else None
        census.append(Task("cli", ["census", "--ell", "3"], t, csv))
    groups = [census]
    for case in ("gsp4", "sp4"):
        groups.append([Task("cli", ["ceta", "--case", case, "--ell", "3",
                                    "--eta", _eta(rng)], t)
                       for t in _threads(rng, 6)])
    return groups


def families_tasks(rng, out_dir):
    """Groups: 8 heavy family builds (1-4 s), 7 Hen at l=3 (about 0.6 s),
    26 short family and ceta tasks (about one interpreter start).  The tail
    rank, 10 tasks from the top, falls on the third slowest Hen task; the
    median falls inside the short group."""
    def family(tag, ell):
        return Task("cli", ["family", "--case", tag, "--ell", str(ell)])

    def ceta(tag):
        return Task("cli", ["ceta", "--case", tag, "--ell", "3",
                            "--eta", _eta(rng)])

    heavy = [family(tag, 3) for tag in HEAVY_FAMILIES]
    heavy += [family(tag, 5) for tag in FAMILIES_ELL5]
    hen = [family("Hen", 3)] + [ceta("Hen") for _ in range(6)]
    short = [family(tag, 3) for tag in ALL_FAMILIES
             if tag != "Hen" and tag not in HEAVY_FAMILIES]
    short += [ceta(tag) for tag in CETA_FAMILIES * 4]
    return [heavy, hen, short]


def _satake_value(rng):
    "A nonzero rational, or a Gaussian integer a+b*i in the CLI's notation."
    if rng.random() < 1 / 3:
        a, b = rng.randint(-3, 3), rng.choice([-3, -2, -1, 1, 2, 3])
        return ("%d%+d*i" % (a, b)) if a else "%d*i" % b
    return str(Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]),
                        rng.randint(1, 4)))


def exact_tasks(rng, out_dir):
    """Groups: 5 gallery and rou_charpolys(6) tasks (2-5 s, but `gallery
    sym3` stops early), 13 rou_charpolys(5) (about 0.55 s), and 9 each of
    hecke, ylattice and p1reps (about one interpreter start).  The tail rank,
    10 tasks from the top, falls in the middle of the rou_charpolys(5) tasks
    and `gallery sym3`, whose latency is about theirs; the median falls
    inside the short groups."""
    heavy = [Task("cli", ["gallery", "solvable"]),
             Task("cli", ["gallery", "solvable"]),
             Task("cli", ["gallery", "sym3"]),
             Task("rou", ["6"]),
             Task("rou", ["6", "symplectic"])]
    medium = [Task("rou", ["5"]) for _ in range(13)]
    hecke, ylattice, p1reps = [], [], []
    for _ in range(9):
        satake = ",".join(_satake_value(rng) for _ in range(3))
        # `=` keeps argparse from reading a leading minus sign as a flag
        hecke.append(Task("cli", ["hecke", "--satake=" + satake,
                                  "--p", str(rng.choice([2, 3, 5, 7, 11]))]))
        c = Fraction(rng.randint(1, 40), rng.randint(1, 4))
        ylattice.append(Task("cli", ["ylattice", "--ring",
                                     rng.choice(["z", "gaussian", "eisenstein"]),
                                     "--c", str(c)]))
        p = rng.choice([2, 3, 5, 7])
        beta = rng.randint(0, 2 if p == 7 else 3)
        p1reps.append(Task("cli", ["p1reps", "--p", str(p),
                                   "--beta", str(beta)]))
    return [heavy, medium, hecke, ylattice, p1reps]


def _spread(rng, groups):
    """One list of all the tasks, each group shuffled and spread evenly over
    it: the k-th of n tasks of a group sits at (k + offset) / n of the way,
    with a seeded offset per group."""
    keyed = []
    for g, tasks in enumerate(groups):
        rng.shuffle(tasks)
        offset = rng.random()
        keyed += [((k + offset) / len(tasks), g, k, task)
                  for k, task in enumerate(tasks)]
    keyed.sort(key=lambda entry: entry[:3])
    return [entry[3] for entry in keyed]


_BUILDERS = {"census": census_tasks, "families": families_tasks,
             "exact": exact_tasks}


def build(workload, seed, out_dir):
    """The seeded task list of a workload, its groups spread evenly over
    it.  CSV outputs go under out_dir, a path relative to the directory the
    tasks run in."""
    rng = random.Random("%s:%d" % (workload, seed))
    return _spread(rng, _BUILDERS[workload](rng, out_dir))
