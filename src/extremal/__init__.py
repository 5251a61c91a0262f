"""Desk-scale workbench for extremal hypergraph computations."""
