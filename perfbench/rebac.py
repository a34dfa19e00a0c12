"""A seeded relationship-based access-control domain and its oracle.

Following Crampton & Sellwood ("Relationships, Paths and Principal
Matching"), access is a path condition over a relationship graph:
users belong to groups, groups nest inside groups, documents and
folders sit in a folder tree, and groups are granted ``reads`` on
folders and documents.  :data:`POLICY` states who may read what as
PathLog rules; :class:`Oracle` decides the same question by plain
graph search over the generator's own edge lists, never through the
program under test.
"""

from __future__ import annotations

import bisect
import itertools
import random
from collections import deque

#: The access policy, served demand-driven (magic sets) by rebac-check.
POLICY = """\
% Nested group membership: every group a user (or group) is inside.
X[inGroup ->> {G}] <- X[memberOf ->> {G}].
X[inGroup ->> {H}] <- X..inGroup[memberOf ->> {H}].
% The folder tree: every folder a document (or folder) sits within.
D[within ->> {F}] <- D[parent -> F].
D[within ->> {F}] <- D..within[parent -> F].
% Grants of groups on documents, and on folders for all they contain.
U[canRead ->> {D}] <- U..inGroup[reads ->> {D}].
U[canRead ->> {D}] <- U..inGroup[reads ->> {F}], D[within ->> {F}].
"""

#: Sizes of the generated graph (see README.md for how they relate to
#: the 16-entry demand memo).
USERS = 80
GROUPS = 24
FOLDERS = 24
DOCUMENTS = 160
#: Documents recycled by the durable-ingest stream (part of the graph).
INGEST_DOCUMENTS = 100


class Zipf:
    """Draws ranks ``0..n-1`` with probability proportional to 1/(k+1)^s."""

    def __init__(self, n: int, s: float) -> None:
        weights = [1.0 / (k ** s) for k in range(1, n + 1)]
        total = sum(weights)
        self._cdf = list(itertools.accumulate(w / total for w in weights))

    def draw(self, rng: random.Random) -> int:
        return min(bisect.bisect_left(self._cdf, rng.random()),
                   len(self._cdf) - 1)


class Graph:
    """The relationship graph as plain edge lists (the oracle's input)."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"rebac-{seed}")
        self.users = [f"u{i}" for i in range(USERS)]
        self.groups = [f"g{i}" for i in range(GROUPS)]
        self.folders = [f"f{i}" for i in range(FOLDERS)]
        self.documents = [f"d{i}" for i in range(DOCUMENTS)]
        self.ingest_documents = [f"n{i}" for i in range(INGEST_DOCUMENTS)]
        #: user or group -> the groups it is a direct member of.
        self.member: dict[str, set[str]] = {}
        #: document or folder -> its folder.
        self.parent: dict[str, str] = {}
        #: group -> the folders and documents it is granted.
        self.reads: dict[str, set[str]] = {g: set() for g in self.groups}
        for index, group in enumerate(self.groups[4:], start=4):
            # Nesting points at lower-numbered groups: a DAG a few
            # levels deep, some groups inside two others.
            parents = {self.groups[rng.randrange(index // 2, index)]}
            if rng.random() < 0.3:
                parents.add(self.groups[rng.randrange(index)])
            self.member[group] = parents
        for index, folder in enumerate(self.folders[1:], start=1):
            self.parent[folder] = self.folders[rng.randrange(index)]
        for document in self.documents + self.ingest_documents:
            self.parent[document] = rng.choice(self.folders)
        for user in self.users:
            self.member[user] = set(rng.sample(self.groups,
                                               rng.randint(1, 3)))
        for group in self.groups:
            self.reads[group].add(rng.choice(self.folders[4:]))
            self.reads[group].update(rng.sample(self.documents, 3))
        for document in self.ingest_documents:
            self.reads[rng.choice(self.groups)].add(document)

    def facts(self):
        """``(kind, method, subject, value)`` for every base fact."""
        for user in self.users:
            yield ("isa", None, user, "user")
        for group in self.groups:
            yield ("isa", None, group, "group")
        for folder in self.folders:
            yield ("isa", None, folder, "folder")
        for document in self.documents + self.ingest_documents:
            yield ("isa", None, document, "document")
        for subject, groups in self.member.items():
            for group in groups:
                yield ("set", "memberOf", subject, group)
        for subject, folder in self.parent.items():
            yield ("scalar", "parent", subject, folder)
        for group, targets in self.reads.items():
            for target in targets:
                yield ("set", "reads", group, target)

    def snapshot(self) -> str:
        """The graph as a ``repro`` JSON database snapshot."""
        from repro.oodb import serialize
        from repro.oodb.database import Database

        db = Database()
        for kind, method, subject, value in self.facts():
            if kind == "isa":
                db.add_object(subject, classes=[value])
            elif kind == "scalar":
                db.add_object(subject, scalars={method: value})
            else:
                db.add_object(subject, sets={method: [value]})
        return serialize.dumps(db)


class Oracle:
    """Reachability over the generator's edge lists, updated per write."""

    def __init__(self, graph: Graph) -> None:
        self.member = {k: set(v) for k, v in graph.member.items()}
        self.parent = dict(graph.parent)
        self.reads = {k: set(v) for k, v in graph.reads.items()}
        self.isa = {(subject, value) for kind, _, subject, value
                    in graph.facts() if kind == "isa"}

    def groups_of(self, subject: str) -> set[str]:
        seen: set[str] = set()
        queue = deque(self.member.get(subject, ()))
        while queue:
            group = queue.popleft()
            if group not in seen:
                seen.add(group)
                queue.extend(self.member.get(group, ()))
        return seen

    def folders_of(self, subject: str) -> set[str]:
        seen: set[str] = set()
        folder = self.parent.get(subject)
        while folder is not None and folder not in seen:
            seen.add(folder)
            folder = self.parent.get(folder)
        return seen

    def can_read(self, user: str, document: str) -> bool:
        targets = self.folders_of(document) | {document}
        return any(self.reads.get(group, set()) & targets
                   for group in self.groups_of(user))

    def apply(self, change: list) -> bool:
        """Apply one wire change; True iff it changed a fact."""
        tag = change[0]
        if tag in ("+isa", "-isa"):
            fact = (change[1], change[2])
            present = fact in self.isa
            if tag == "+isa":
                self.isa.add(fact)
                return not present
            self.isa.discard(fact)
            return present
        method, subject = change[1], change[2]
        if method == "parent":
            if tag == "+scalar":
                changed = self.parent.get(subject) != change[4]
                self.parent[subject] = change[4]
                return changed
            return self.parent.pop(subject, None) is not None
        table = self.member if method == "memberOf" else self.reads
        members = table.setdefault(subject, set())
        value = change[4]
        if tag == "+set":
            changed = value not in members
            members.add(value)
            return changed
        changed = value in members
        members.discard(value)
        return changed

    # -- answers of the durable-ingest read templates -----------------

    def memberships(self, subject: str) -> set[tuple]:
        return {(g,) for g in self.member.get(subject, ())}

    def granted(self, group: str) -> set[tuple]:
        return {(t,) for t in self.reads.get(group, ())}

    def children(self, folder: str) -> set[tuple]:
        return {(s,) for s, f in self.parent.items() if f == folder}


def toggle(member: dict, users: list[str], groups: list[str],
           rng: random.Random) -> tuple[list, list]:
    """A membership write and the write that undoes it.

    Half the time a grant of a membership the user lacks, else a
    revocation of one it has; the pair leaves the graph as it was.
    """
    user = rng.choice(users)
    held = member.get(user, set())
    if held and rng.random() < 0.5:
        group = rng.choice(sorted(held))
        first, second = "-set", "+set"
    else:
        group = rng.choice([g for g in groups if g not in held])
        first, second = "+set", "-set"
    return ([first, "memberOf", user, [], group],
            [second, "memberOf", user, [], group])


class IngestStream:
    """Write batches of exactly :data:`ENTRIES` change entries.

    Each batch re-creates one of the graph's ingest documents (its
    class, folder and grant retracted, then asserted anew), revokes the
    membership and the document grant the previous batch made, and
    makes a new one of each.  The graph therefore keeps its size however
    long the stream runs, so restart time does not grow with how many
    batches a run managed.
    """

    ENTRIES = 10

    def __init__(self, graph: Graph, seed: int) -> None:
        self.graph = graph
        self.rng = random.Random(f"ingest-{seed}")
        #: The stream's own view of the state (an oracle of its own).
        self.model = Oracle(graph)
        self.batches = 0
        self._member: tuple | None = None
        self._grant: tuple | None = None
        #: Every batch made, and the pending revocations after each.
        self.made: list[list[list]] = []
        self._pending: list[tuple] = []

    def rewind(self, count: int) -> None:
        """Forget every batch after the first ``count``.

        Batches are built ahead of the measured run; the ones it did
        not send are taken back, so the model holds exactly the sent
        ones and the next batch continues from them.
        """
        del self.made[count:], self._pending[count:]
        self.model = Oracle(self.graph)
        for batch in self.made:
            for change in batch:
                self.model.apply(change)
        self._member, self._grant = (self._pending[-1] if self._pending
                                     else (None, None))
        self.batches = count

    def _apply(self, changes: list, change: list) -> None:
        if not self.model.apply(change):
            raise ValueError(f"ingest change {change!r} changes nothing")
        changes.append(change)

    def batch(self) -> list[list]:
        graph, model, rng = self.graph, self.model, self.rng
        changes: list[list] = []
        docs = graph.ingest_documents
        doc = docs[self.batches % len(docs)]
        old = [g for g in graph.groups if doc in model.reads[g]]
        self._apply(changes, ["-isa", doc, "document"])
        self._apply(changes, ["-scalar", "parent", doc, []])
        for group in old:
            self._apply(changes, ["-set", "reads", group, [], doc])
        self._apply(changes, ["+isa", doc, "document"])
        self._apply(changes, ["+scalar", "parent", doc, [],
                              rng.choice(graph.folders)])
        self._apply(changes, ["+set", "reads", rng.choice(graph.groups),
                              [], doc])
        if self._member is None:
            user = rng.choice([u for u in graph.users if model.member[u]])
            self._member = (user, rng.choice(sorted(model.member[user])))
        self._apply(changes, ["-set", "memberOf", self._member[0], [],
                              self._member[1]])
        user = rng.choice(graph.users)
        group = rng.choice([g for g in graph.groups
                            if g not in model.member[user]])
        self._member = (user, group)
        self._apply(changes, ["+set", "memberOf", user, [], group])
        if self._grant is None:
            group = rng.choice(graph.groups)
            self._grant = (group, rng.choice(sorted(
                t for t in model.reads[group] if t in graph.documents)))
        self._apply(changes, ["-set", "reads", self._grant[0], [],
                              self._grant[1]])
        group = rng.choice(graph.groups)
        document = rng.choice([d for d in graph.documents
                               if d not in model.reads[group]])
        self._grant = (group, document)
        self._apply(changes, ["+set", "reads", group, [], document])
        if len(changes) != self.ENTRIES:
            raise ValueError(f"ingest batch has {len(changes)} entries")
        self.batches += 1
        self.made.append(changes)
        self._pending.append((self._member, self._grant))
        return changes
