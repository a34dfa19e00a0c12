"""Path queries over the paper's company domain, and their oracle.

Requests instantiate a handful of two-dimensional path templates with
constants drawn per request.  :class:`Facts` answers every template in
plain Python over the facts of the JSON snapshot the server loads, so
a wrong plan, a dropped binding or a repeated answer shows up as a
mismatch.
"""

from __future__ import annotations

import random
from collections import defaultdict

#: Employees in the generated company (managers are the first fifth).
EMPLOYEES = 3000
COMPANIES = 8

AGES = range(25, 61)
CITIES = ("newYork", "detroit", "boston", "chicago", "seattle")
COLORS = ("red", "blue", "green", "black", "white")
SALARIES = (1000, 2000, 3000, 4000)


class Template:
    """One query shape: how to draw its constants and its answers."""

    def __init__(self, name: str, kind: str, text: str, draw) -> None:
        self.name = name
        #: ``point`` (a handful of rows) or ``scan`` (thousands).
        self.kind = kind
        self.text = text
        self.draw = draw

    def query(self, constants: dict) -> str:
        return self.text.format(**constants)


def _manager(rng: random.Random) -> dict:
    return {"m": f"p{rng.randrange(EMPLOYEES // 5)}"}


TEMPLATES = {
    t.name: t for t in (
        Template("vehicle-producers", "point",
                 "{p}..vehicles : automobile.producedBy[P].city[C]",
                 lambda rng: {"p": f"p{rng.randrange(EMPLOYEES)}"}),
        Template("employee-lookup", "point",
                 "X : employee[age -> {a}; city -> {c}]"
                 "..vehicles[color -> {k}]",
                 lambda rng: {"a": rng.choice(AGES),
                              "c": rng.choice(CITIES),
                              "k": rng.choice(COLORS)}),
        Template("assistants", "point",
                 "{m}..assistants[age -> A; city -> C]", _manager),
        Template("salary-vehicles", "scan",
                 "X : employee[salary -> {s}]..vehicles[color -> K]",
                 lambda rng: {"s": rng.choice(SALARIES)}),
        Template("department-producers", "scan",
                 "X : employee[worksFor -> {d}]"
                 "..vehicles : automobile.producedBy[P]",
                 lambda rng: {"d": f"dep{rng.randrange(COMPANIES)}"}),
    )
}

#: One round of one connection: 45 point or selective lookups and 5
#: scans, in a seeded shuffle.
ROUND = (["vehicle-producers"] * 20 + ["employee-lookup"] * 13
         + ["assistants"] * 12 + ["salary-vehicles"] * 3
         + ["department-producers"] * 2)


def build_snapshot(seed: int) -> str:
    """The company database for ``seed`` as a JSON snapshot."""
    from repro.datasets.company import CompanyConfig, build_company
    from repro.oodb import serialize

    db = build_company(CompanyConfig(employees=EMPLOYEES,
                                     companies=COMPANIES, seed=seed))
    return serialize.dumps(db)


class Facts:
    """The snapshot's facts as dictionaries, and each template's answers."""

    def __init__(self, document: dict) -> None:
        declared = defaultdict(set)
        for member, cls in document["isa"]:
            declared[member["n"]].add(cls["n"])
        self.scalar: dict[tuple, object] = {}
        for method, subject, _args, result in document["scalars"]:
            self.scalar[(method["n"], subject["n"])] = result["n"]
        self.sets: dict[tuple, set] = {}
        for method, subject, _args, members in document["sets"]:
            self.sets[(method["n"], subject["n"])] = {m["n"]
                                                      for m in members}
        self.classes: dict[object, set] = {}
        for obj in declared:
            seen, stack = set(), list(declared[obj])
            while stack:
                cls = stack.pop()
                if cls not in seen:
                    seen.add(cls)
                    stack.extend(declared.get(cls, ()))
            self.classes[obj] = seen
        self.employees = [o for o, c in self.classes.items()
                          if "employee" in c]

    def _get(self, method: str, subject):
        return self.scalar.get((method, subject))

    def _vehicles(self, subject) -> set:
        return self.sets.get(("vehicles", subject), set())

    def _automobile(self, vehicle) -> bool:
        return "automobile" in self.classes.get(vehicle, ())

    def answers(self, template: str, c: dict) -> tuple[list, set]:
        """``(variables, rows)`` the template must answer."""
        get = self._get
        if template == "vehicle-producers":
            rows = set()
            for v in self._vehicles(c["p"]):
                producer = get("producedBy", v)
                if self._automobile(v) and producer is not None:
                    city = get("city", producer)
                    if city is not None:
                        rows.add((producer, city))
            return ["P", "C"], rows
        if template == "employee-lookup":
            return ["X"], {
                (x,) for x in self.employees
                if get("age", x) == c["a"] and get("city", x) == c["c"]
                and any(get("color", v) == c["k"]
                        for v in self._vehicles(x))}
        if template == "assistants":
            rows = set()
            for a in self.sets.get(("assistants", c["m"]), ()):
                age, city = get("age", a), get("city", a)
                if age is not None and city is not None:
                    rows.add((age, city))
            return ["A", "C"], rows
        if template == "salary-vehicles":
            return ["X", "K"], {
                (x, get("color", v)) for x in self.employees
                if get("salary", x) == c["s"]
                for v in self._vehicles(x) if get("color", v) is not None}
        if template == "department-producers":
            return ["X", "P"], {
                (x, get("producedBy", v)) for x in self.employees
                if get("worksFor", x) == c["d"]
                for v in self._vehicles(x)
                if self._automobile(v)
                and get("producedBy", v) is not None}
        raise KeyError(template)
