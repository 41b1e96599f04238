"""Buchi automata and a parser for a state-based HOA v1 subset.

Supported input: `HOA: v1` files with `States:`, one or more `Start:`
headers, `AP:`, `acc-name: Buchi`, `Acceptance: 1 Inf(0)`, and a body of
`State:` items whose transitions are `[guard] dest` lines. Guards use the
grammar  t | f | <int> | !g | g & g | g | g | (g)  with integers indexing
the AP declaration. Anything outside this subset is rejected with a named
error rather than half-parsed.

Each guard is compiled once, at parse time, to a deduplicated list of
consistent cubes `(pos, neg)`: bit masks of the propositions a label must
hold and must not hold. The guard holds on a label exactly when one of its
cubes does, so enabling is two mask tests per cube, and the least number of
propositions to flip so that a label enables the guard is the least
`popcount(pos & ~bits) + popcount(neg & bits)` over its cubes. A guard
whose cube list would exceed `MAX_GUARD_CUBES` is rejected with
`GuardTooLargeError` instead of expanded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .labels import APUniverse

MAX_GUARD_CUBES = 1 << 16


class HoaParseError(ValueError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        where = f" (line {line}" + (f", col {col})" if col else ")") if line else ""
        super().__init__(f"{message}{where}")


class UnsupportedHoaError(HoaParseError):
    """Syntactically valid HOA that uses a feature outside the subset."""


class GuardTooLargeError(HoaParseError):
    """A guard whose cube expansion exceeds `MAX_GUARD_CUBES`."""


# ---------------------------------------------------------------------------
# Guard expression trees


class Guard:
    _cubes = None

    def eval(self, bits: int) -> bool:
        raise NotImplementedError

    def cubes(self, line: int = 0) -> tuple[tuple[int, int], ...]:
        """Deduplicated consistent cubes `(pos, neg)` whose union is this guard."""
        if self._cubes is None:
            self._cubes = tuple(_dnf(self, False, line))
        return self._cubes


class GTrue(Guard):
    def eval(self, bits):
        return True

    def __repr__(self):
        return "t"


class GFalse(Guard):
    def eval(self, bits):
        return False

    def __repr__(self):
        return "f"


class GProp(Guard):
    def __init__(self, index: int):
        self.index = index

    def eval(self, bits):
        return bits >> self.index & 1 == 1

    def __repr__(self):
        return str(self.index)


class GNot(Guard):
    def __init__(self, sub: Guard):
        self.sub = sub

    def eval(self, bits):
        return not self.sub.eval(bits)

    def __repr__(self):
        return f"!{self.sub!r}"


class GAnd(Guard):
    def __init__(self, left: Guard, right: Guard):
        self.left = left
        self.right = right

    def eval(self, bits):
        return self.left.eval(bits) and self.right.eval(bits)

    def __repr__(self):
        return f"({self.left!r} & {self.right!r})"


class GOr(Guard):
    def __init__(self, left: Guard, right: Guard):
        self.left = left
        self.right = right

    def eval(self, bits):
        return self.left.eval(bits) or self.right.eval(bits)

    def __repr__(self):
        return f"({self.left!r} | {self.right!r})"


def parse_guard(text: str, n_props: int, line: int = 0) -> Guard:
    """Recursive-descent parser for the guard grammar; ! binds over & over |."""
    tokens = _tokenize_guard(text, line)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_or():
        node = parse_and()
        while peek() and peek()[0] == "|":
            take()
            node = GOr(node, parse_and())
        return node

    def parse_and():
        node = parse_not()
        while peek() and peek()[0] == "&":
            take()
            node = GAnd(node, parse_not())
        return node

    def parse_not():
        tok = peek()
        if tok is None:
            raise HoaParseError("guard ended unexpectedly", line, len(text) + 1)
        if tok[0] == "!":
            take()
            return GNot(parse_not())
        return parse_atom()

    def parse_atom():
        kind, value, col = take()
        if kind == "t":
            return GTrue()
        if kind == "f":
            return GFalse()
        if kind == "int":
            if value >= n_props:
                raise HoaParseError(f"AP index {value} out of range (universe has {n_props})", line, col)
            return GProp(value)
        if kind == "(":
            node = parse_or()
            tok = peek()
            if tok is None or tok[0] != ")":
                raise HoaParseError("missing closing parenthesis in guard", line, col)
            take()
            return node
        raise HoaParseError(f"unexpected {value!r} in guard", line, col)

    node = parse_or()
    if pos != len(tokens):
        kind, value, col = tokens[pos]
        raise HoaParseError(f"unexpected {value!r} after guard", line, col)
    node.cubes(line)
    return node


def _dnf(g: Guard, negated: bool, line: int) -> list[tuple[int, int]]:
    """Cubes of `g` (of `!g` when negated), with `!` pushed down by De Morgan."""
    while isinstance(g, GNot):
        g, negated = g.sub, not negated
    if isinstance(g, GProp):
        bit = 1 << g.index
        return [(0, bit)] if negated else [(bit, 0)]
    if isinstance(g, (GTrue, GFalse)):
        return [(0, 0)] if isinstance(g, GTrue) != negated else []
    disjunction = isinstance(g, GOr) != negated
    operands = _chain(g)
    cubes = dict.fromkeys(_dnf(operands[0], negated, line))
    for sub in operands[1:]:
        more = _dnf(sub, negated, line)
        if disjunction:
            cubes.update(dict.fromkeys(more))
            size = len(cubes)
        else:  # pairwise product, contradictions dropped; bounded before it is built
            size = len(cubes) * len(more)
            if size <= MAX_GUARD_CUBES:
                cubes = dict.fromkeys(
                    (lp | rp, ln | rn) for lp, ln in cubes for rp, rn in more
                    if not (lp | rp) & (ln | rn))
        if size > MAX_GUARD_CUBES:
            raise GuardTooLargeError(f"guard expands to more than {MAX_GUARD_CUBES} cubes", line)
    return list(cubes)


def _chain(g: Guard) -> list[Guard]:
    """Operands of a left-nested run of one binary operator, left to right."""
    kind = type(g)
    operands = []
    while isinstance(g, kind):
        operands.append(g.right)
        g = g.left
    operands.append(g)
    operands.reverse()
    return operands


def cubes_enable(cubes, bits: int) -> bool:
    """True when label `bits` satisfies one of the cubes."""
    return any(bits & pos == pos and not bits & neg for pos, neg in cubes)


def cubes_distance(cubes, bits: int) -> int:
    """Least number of propositions to flip in `bits` to satisfy one of the cubes."""
    return min((pos & ~bits).bit_count() + (neg & bits).bit_count() for pos, neg in cubes)


def _tokenize_guard(text: str, line: int):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "!&|()":
            tokens.append((ch, ch, i + 1))
            i += 1
        elif ch == "t" or ch == "f":
            tokens.append((ch, ch, i + 1))
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i + 1))
            i = j
        else:
            raise HoaParseError(f"bad character {ch!r} in guard", line, i + 1)
    if not tokens:
        raise HoaParseError("empty guard", line, 1)
    return tokens


# ---------------------------------------------------------------------------
# The automaton


@dataclass
class NBA:
    """Nondeterministic Buchi automaton over subsets of an AP universe."""

    universe: APUniverse
    n_states: int
    initial: list[int]
    accepting: list[int]
    transitions: list[tuple[int, Guard, int]]
    _succ: list = field(default=None, repr=False)

    def __post_init__(self):
        if not self.initial:
            raise ValueError("automaton needs at least one initial state")
        for q in self.initial + self.accepting:
            if not 0 <= q < self.n_states:
                raise ValueError(f"state {q} out of range")
        for qm, _, qn in self.transitions:
            if not (0 <= qm < self.n_states and 0 <= qn < self.n_states):
                raise ValueError(f"transition endpoint {qm}->{qn} out of range")
        self._succ = [{} for _ in range(self.n_states)]
        for qm, guard, qn in self.transitions:
            cubes = self._succ[qm].get(qn, ())
            self._succ[qm][qn] = tuple(dict.fromkeys(cubes + guard.cubes()))

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)

    def delta(self, qm: int, bits: int) -> list[int]:
        """Successor states of qm on input label `bits`."""
        return [qn for qn, cubes in self._succ[qm].items() if cubes_enable(cubes, bits)]

    def pairs(self):
        """All (q_m, q_n) with at least one transition, in a stable order."""
        return [(qm, qn) for qm in range(self.n_states) for qn in sorted(self._succ[qm])]

    def pair_cubes(self, qm: int, qn: int) -> tuple[tuple[int, int], ...]:
        """Cubes of every guard on q_m -> q_n; empty if no label enables it."""
        return self._succ[qm].get(qn, ())


# ---------------------------------------------------------------------------
# HOA parsing

_IGNORED_HEADERS = {"name", "tool", "properties"}


def parse_nba(text: str) -> NBA:
    """Parse the HOA v1 subset into an NBA."""
    lines = text.splitlines()
    n_states = None
    initial: list[int] = []
    ap_names = None
    acceptance_ok = False
    acc_name_ok = False
    body_start = None

    if not lines or lines[0].strip() != "HOA: v1":
        raise HoaParseError("file must begin with 'HOA: v1'", 1)

    for idx in range(1, len(lines)):
        line = lines[idx].strip()
        lineno = idx + 1
        if not line:
            continue
        if line == "--BODY--":
            body_start = idx + 1
            break
        if ":" not in line:
            raise HoaParseError(f"expected 'header: value', got {line!r}", lineno)
        header, _, value = line.partition(":")
        header = header.strip()
        value = value.strip()
        if header == "States":
            n_states = _parse_int(value, "States", lineno)
        elif header == "Start":
            if "&" in value:
                raise UnsupportedHoaError("conjunctive initial states are not supported", lineno)
            initial.append(_parse_int(value, "Start", lineno))
        elif header == "AP":
            ap_names = _parse_ap(value, lineno)
        elif header == "Acceptance":
            if " ".join(value.split()) != "1 Inf(0)":
                raise UnsupportedHoaError(
                    f"only Buchi acceptance '1 Inf(0)' is supported, got {value!r}", lineno
                )
            acceptance_ok = True
        elif header == "acc-name":
            if value != "Buchi":
                raise UnsupportedHoaError(f"acc-name must be Buchi, got {value!r}", lineno)
            acc_name_ok = True
        elif header in _IGNORED_HEADERS:
            continue
        else:
            raise UnsupportedHoaError(f"unsupported header {header!r}", lineno)

    if body_start is None:
        raise HoaParseError("missing --BODY-- marker", len(lines))
    if n_states is None:
        raise HoaParseError("missing States: header", body_start)
    if not initial:
        raise HoaParseError("missing Start: header", body_start)
    if ap_names is None:
        raise HoaParseError("missing AP: header", body_start)
    if not acceptance_ok:
        raise HoaParseError("missing Acceptance: header", body_start)
    if not acc_name_ok:
        raise HoaParseError("missing acc-name: header", body_start)

    universe = APUniverse(tuple(ap_names))
    accepting: list[int] = []
    transitions: list[tuple[int, Guard, int]] = []
    seen_states = set()
    current = None
    ended = False

    for idx in range(body_start, len(lines)):
        line = lines[idx].strip()
        lineno = idx + 1
        if not line:
            continue
        if ended:
            raise HoaParseError(f"content after --END--: {line!r}", lineno)
        if line == "--END--":
            ended = True
            continue
        if line.startswith("State:"):
            current = _parse_state_line(line[len("State:"):], lineno, n_states, accepting)
            if current in seen_states:
                raise HoaParseError(f"state {current} declared twice", lineno)
            seen_states.add(current)
        elif line.startswith("["):
            if current is None:
                raise HoaParseError("transition before any State: item", lineno)
            close = line.find("]")
            if close < 0:
                raise HoaParseError("unterminated guard bracket", lineno)
            guard = parse_guard(line[1:close], len(ap_names), lineno)
            rest = line[close + 1:].split()
            if not rest:
                raise HoaParseError("transition missing destination state", lineno)
            if len(rest) > 1 or "{" in rest[0]:
                raise UnsupportedHoaError("transition-based acceptance is not supported", lineno)
            dest = _parse_int(rest[0], "destination", lineno)
            if dest >= n_states:
                raise HoaParseError(f"destination {dest} out of range", lineno)
            transitions.append((current, guard, dest))
        else:
            raise HoaParseError(f"unexpected body line {line!r}", lineno)

    if not ended:
        raise HoaParseError("missing --END-- marker", len(lines))
    for q in initial:
        if q >= n_states:
            raise HoaParseError(f"initial state {q} out of range", 1)

    return NBA(universe, n_states, initial, accepting, transitions)


def parse_nba_file(path) -> NBA:
    with open(path, encoding="utf-8") as fh:
        return parse_nba(fh.read())


def _parse_int(value: str, what: str, lineno: int) -> int:
    try:
        n = int(value)
    except ValueError:
        raise HoaParseError(f"{what} expects an integer, got {value!r}", lineno) from None
    if n < 0:
        raise HoaParseError(f"{what} must be non-negative", lineno)
    return n


def _parse_ap(value: str, lineno: int) -> list[str]:
    parts = value.split(None, 1)
    count = _parse_int(parts[0], "AP count", lineno)
    names = []
    rest = parts[1] if len(parts) > 1 else ""
    i = 0
    while i < len(rest):
        if rest[i].isspace():
            i += 1
            continue
        if rest[i] != '"':
            raise HoaParseError("AP names must be double-quoted", lineno, i + 1)
        j = rest.find('"', i + 1)
        if j < 0:
            raise HoaParseError("unterminated AP name", lineno, i + 1)
        names.append(rest[i + 1:j])
        i = j + 1
    if len(names) != count:
        raise HoaParseError(f"AP count {count} but {len(names)} names given", lineno)
    return names


def _parse_state_line(rest: str, lineno: int, n_states: int, accepting: list[int]) -> int:
    rest = rest.strip()
    acc_sig = None
    if "{" in rest:
        open_idx = rest.index("{")
        close_idx = rest.find("}", open_idx)
        if close_idx < 0:
            raise HoaParseError("unterminated acceptance signature", lineno)
        acc_sig = rest[open_idx + 1:close_idx].strip()
        rest = (rest[:open_idx] + rest[close_idx + 1:]).strip()
    if '"' in rest:  # optional state name, ignored
        first = rest.index('"')
        second = rest.find('"', first + 1)
        if second < 0:
            raise HoaParseError("unterminated state name", lineno)
        rest = (rest[:first] + rest[second + 1:]).strip()
    state = _parse_int(rest, "State", lineno)
    if state >= n_states:
        raise HoaParseError(f"state {state} out of range", lineno)
    if acc_sig is not None:
        if acc_sig != "0":
            raise UnsupportedHoaError(f"acceptance signature {{{acc_sig}}} is not Buchi set 0", lineno)
        accepting.append(state)
    return state
