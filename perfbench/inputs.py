"""Seeded inputs for every workload: corpora, documents and queries.

The program under test receives only what is built here: XML text and
query strings.  Every function is deterministic in its seed.
"""

from __future__ import annotations

import random

#: The four Figure 15 corpora, by the name the paper uses.
FAMILIES = ("shake", "nasa", "dblp", "psd")

#: The paper's own queries (Figures 16, 17 and 19), per corpus.
PAPER_QUERIES = {
    "shake": [
        "/PLAY/ACT/SCENE/SPEECH[LINE contains 'love']/SPEAKER/text()",
        "/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()",
        "//ACT//SPEAKER/text()",
    ],
    "nasa": ["/datasets/dataset/reference/source/other/name/text()"],
    "dblp": ["/dblp/article/title/text()",
             "/dblp/inproceedings[author]/title/text()"],
    "psd": ["/ProteinDatabase/ProteinEntry/reference/refinfo/authors"
            "/author/text()"],
}

#: Standing queries for ``serve`` and the query set for ``small-docs``:
#: per corpus, child-axis queries (the codegen tier under ``auto``) and
#: closure queries (XSQ-F), with predicates on both.
SMALL_DOC_QUERIES = {
    "shake": ["/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()",
              "/PLAY/ACT/SCENE/SPEECH[SPEAKER]/LINE/text()",
              "//SCENE//SPEAKER/text()"],
    "nasa": ["/datasets/dataset/reference/source/other/name/text()",
             "/datasets/dataset[@subject]/title/text()",
             "//reference//name/text()"],
    "dblp": ["/dblp/article/title/text()",
             "/dblp/inproceedings[author]/title/text()",
             "//inproceedings//author/text()"],
    "psd": ["/ProteinDatabase/ProteinEntry/protein/name/text()",
            "/ProteinDatabase/ProteinEntry[@id]/header/created_date/text()",
            "//refinfo//author/text()"],
}


def corpus(family, size, seed):
    """One Figure 15 corpus of about ``size`` bytes."""
    from repro import datagen
    return getattr(datagen, "generate_" + family)(target_bytes=size,
                                                  seed=seed)


def small_docs(count, seed, low=2000, high=5000):
    """``count`` documents of ``low``..``high`` bytes, families in turn.

    Returns ``[(family, xml_text)]``.  Families rotate so every run
    holds the same mix whatever the seed.
    """
    rng = random.Random(seed)
    docs = []
    for i in range(count):
        family = FAMILIES[i % len(FAMILIES)]
        docs.append((family, corpus(family, rng.randint(low, high),
                                    rng.randrange(1 << 30))))
    return docs


def sampled_queries(xml, seed, count):
    """``count`` distinct random queries over ``xml``'s tag graph.

    Drawn by the repository's own workload generator with predicates,
    wildcards and ``//``; half of them (chosen by the seed) select
    text rather than whole elements.
    """
    from repro.datagen import QueryWorkloadGenerator, TagGraph
    graph = TagGraph.from_document(xml)
    gen = QueryWorkloadGenerator(graph, seed=seed, max_depth=5,
                                 closure_probability=0.2,
                                 wildcard_probability=0.1,
                                 predicate_probability=0.3)
    rng = random.Random(seed ^ 0x5EED)
    out = []
    for query in gen.workload(count):
        out.append(query + "/text()" if rng.random() < 0.5 else query)
    return out


def boolean_queries(xml, seed, count):
    """``count`` child-axis queries with ``[not(..)]`` or ``[a or b]``.

    The fast tiers reject both forms, so ``auto`` runs these on XSQ-NC.
    Each is a root-anchored walk to an element with at least two child
    tags, filtered on them, selecting a child's text.
    """
    from repro.datagen import TagGraph
    graph = TagGraph.from_document(xml)
    rng = random.Random(seed ^ 0xB001)
    paths = []

    def walk(tag, path, depth):
        kids = sorted(graph.children(tag))
        if len(kids) >= 2:
            paths.append((path, kids))
        if depth < 5:
            for kid in kids:
                walk(kid, path + "/" + kid, depth + 1)

    walk(graph.root, "/" + graph.root, 1)
    out = []
    seen = set()
    attempts = 0
    while len(out) < count and attempts < count * 50:
        attempts += 1
        path, kids = rng.choice(paths)
        a, b, target = rng.sample(kids, 2) + [rng.choice(kids)]
        if rng.random() < 0.5:
            query = "%s[not(%s)]/%s/text()" % (path, a, target)
        else:
            query = "%s[%s or %s]/%s/text()" % (path, a, b, target)
        if query not in seen:
            seen.add(query)
            out.append(query)
    return out


def chunks(data, size):
    return [data[i:i + size] for i in range(0, len(data), size)]
