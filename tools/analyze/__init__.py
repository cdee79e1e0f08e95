"""Determinism analyzer for the CORP tree.

`corp_analyze.py` is the entry point; see docs/static_analysis.md for
the rule contract. The package splits along the pipeline:

    lexer.py          token stream, comments by line, lambda captures
    token_rules.py    nine per-file token rules (CORP-RNG-*, ...)
    micro_frontend.py scope-aware parser lowering each file to facts
    model.py          facts, findings and the suppression index
    rules.py          the 13-rule table and the four fact rules
"""
