"""Strong placement games on graph boards.

Pieces are placed on empty vertices and never move; the legal positions of
such a game form a simplicial complex and the minimal illegal positions
generate a square-free ideal.  This package extracts those objects from
concrete rulesets, computes game trees and canonical values over them, and
realises arbitrary labelled complexes as legal or illegal complexes of
constructed games, with round-trip verifiers.
"""
