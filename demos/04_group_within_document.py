"""
Grouping co-referent mentions in a document
===========================================

"""

# Authors restate the same variant many ways inside one abstract: a full
# protein form, a bare position, the DNA event, an rs number.  Grouping
# links mentions that plainly refer to the same thing and lets the most
# specific identifier in each group stand for all of its members.
import pathlib

from varlex import (
    Recognizer,
    group_mentions,
    load_genes,
    load_kb,
    normalize,
    propagated_ids,
    resolve_gene_context,
    split_sentences,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "tests" / "data"
kb = load_kb(str(DATA / "kb_braf.tsv"))
lexicon = load_genes(str(DATA / "genes.txt"))

text = (
    "BRAF V600E was genotyped by pyrosequencing. The same tumours were "
    "screened for c.1799T>A, and the bare V600 site was imputed. "
    "Separately, KRAS G12D appeared in two cases."
)

recognizer = Recognizer(lexicon)
mentions, genes = recognizer.scan_document(text)
sentences = split_sentences(text)

ids = []
for m in mentions:
    m.gene_context = resolve_gene_context(m, genes, sentences)
    ids.append(normalize(m, kb))

for m, i in zip(mentions, ids):
    print(f"{m.text:<12} {m.mtype.label:<16} {i.render()}")

# Three of the four mentions describe one event.  The V600E protein form,
# the DNA substitution, and the incomplete V600 all land in one group;
# G12D stands alone.
groups = group_mentions(mentions, ids, kb)
print()
for g in groups:
    members = ", ".join(mentions[i].text for i in g.members)
    flag = " (ambiguous)" if g.ambiguous else ""
    print(f"group [{members}] -> {g.group_id.render()}{flag}")

# propagated_ids hands every member its group's identifier, which is how
# the bare V600 ends up with the ClinGen allele id.
final = propagated_ids(mentions, ids, groups)
print()
for m, i in zip(mentions, final):
    print(f"{m.text:<12} {i.render()}")
