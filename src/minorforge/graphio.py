"""Graph serialization: header-free graph6 strings and "n m" edge lists."""

from __future__ import annotations

from pathlib import Path

from .graphs import Graph


def _g6_size_bytes(n: int) -> list[int]:
    if n < 0:
        raise ValueError("negative vertex count")
    if n <= 62:
        return [n + 63]
    if n <= 258047:
        return [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    raise ValueError("graphs beyond 258047 vertices are not supported")


def to_graph6(G: Graph) -> str:
    """Encode in the standard header-free graph6 format."""
    out = _g6_size_bytes(G.n)
    bitbuf = 0
    nbits = 0
    for j in range(1, G.n):
        for i in range(j):
            bitbuf = (bitbuf << 1) | (G.adj[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                out.append(bitbuf + 63)
                bitbuf, nbits = 0, 0
    if nbits:
        out.append((bitbuf << (6 - nbits)) + 63)
    return "".join(chr(b) for b in out)


def parse_graph6(text: str) -> Graph:
    """Decode a header-free graph6 string."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(ch) - 63 for ch in s]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError("graph6 characters must be in the range chr(63)..chr(126)")
    if data[0] == 63:  # '~' prefix: 18-bit vertex count
        if len(data) < 4:
            raise ValueError("truncated graph6 size field")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    rows = [0] * n
    pos = 0
    for j in range(1, n):
        for i in range(j):
            byte = body[pos // 6]
            if byte >> (5 - pos % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos += 1
    while pos % 6:
        if body and body[-1] >> (5 - pos % 6) & 1:
            raise ValueError("graph6 padding bits must be zero")
        pos += 1
    return Graph(n, tuple(rows))


def to_edge_list(G: Graph) -> str:
    """Line-based format: "n m" header then one "u v" pair per edge, 0-indexed."""
    lines = [f"{G.n} {G.edge_count()}"]
    lines += [f"{u} {v}" for u, v in G.edges()]
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty edge list")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError('edge list header must be "n m"')
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph.from_edges(n, edges)


def load_graph_text(text: str) -> Graph:
    """Parse either format: an edge list if the first line is two integers, else graph6."""
    first = text.strip().splitlines()[0].strip() if text.strip() else ""
    parts = first.split()
    if len(parts) == 2:
        try:
            int(parts[0]), int(parts[1])
        except ValueError:
            return parse_graph6(text)
        return parse_edge_list(text)
    return parse_graph6(text)


def read_path_or_text(value: str) -> str:
    """The contents of the file named ``value`` if there is one, else ``value``."""
    try:
        is_file = bool(value) and Path(value).exists()
    except OSError:  # ENAMETOOLONG: inline text can outgrow a file name
        is_file = False
    return Path(value).read_text() if is_file else value


def load_graph(value: str) -> Graph:
    """Load a graph from the file named ``value`` if there is one, else
    parse ``value`` itself with ``load_graph_text``."""
    return load_graph_text(read_path_or_text(value))
