package main

import (
	"fmt"

	"rdfframes"
	"rdfframes/internal/datagen"
)

// graphs holds the handles the frame chains start from.
type graphs struct {
	dbpedia, dblp, yago *rdfframes.KnowledgeGraph
}

func newGraphs() *graphs {
	return &graphs{
		dbpedia: rdfframes.NewKnowledgeGraph(datagen.DBpediaURI, datagen.DBpediaPrefixes()),
		dblp:    rdfframes.NewKnowledgeGraph(datagen.DBLPURI, datagen.DBLPPrefixes()),
		yago:    rdfframes.NewKnowledgeGraph(datagen.YAGOURI, datagen.YAGOPrefixes()),
	}
}

// task is one of the paper's 18 extraction tasks: the frame chain a user
// writes and the SPARQL an expert would write for the same table.
type task struct {
	ID     string // "cs1".."cs3", "Q1".."Q15"
	Frame  func(g *graphs) *rdfframes.RDFFrame
	Expert string
}

// allTasks returns the three case studies (paper §6.1, Figures 3 and 4)
// followed by the 15-query synthetic workload (§6.2, Figure 5), adapted to
// the datagen schema. Thresholds are scaled to the synthetic datasets.
func allTasks() []*task {
	return []*task{
		movieGenreTask(), topicModelingTask(), kgEmbeddingTask(),
		q1(), q2(), q3(), q4(), q5(), q6(), q7(), q8(), q9(), q10(),
		q11(), q12(), q13(), q14(), q15(),
	}
}

// movieGenreTask is case study 6.1.1: the dataframe behind movie genre
// classification — movies starring American or prolific actors, with movie
// and actor features and optional genre (Listing 3).
func movieGenreTask() *task {
	const threshold = 10
	return &task{
		ID: "cs1",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			movies := g.dbpedia.FeatureDomainRange("dbpp:starring", "movie", "actor").
				Expand("actor",
					rdfframes.Out("dbpp:birthPlace", "actor_country"),
					rdfframes.Out("rdfs:label", "actor_name")).
				Expand("movie",
					rdfframes.Out("rdfs:label", "movie_name"),
					rdfframes.Out("dcterms:subject", "subject"),
					rdfframes.Out("dbpp:country", "movie_country"),
					rdfframes.Out("dbpo:genre", "genre").Opt()).
				Cache()
			american := movies.FilterRaw("actor_country",
				`regex(str(?actor_country), "United_States")`)
			prolific := movies.GroupBy("actor").CountDistinct("movie", "movie_count").
				Filter(rdfframes.Conds{"movie_count": {fmt.Sprintf(">=%d", threshold)}})
			return american.Join(prolific, "actor", rdfframes.FullOuterJoin).
				Join(movies, "actor", rdfframes.InnerJoin)
		},
		Expert: fmt.Sprintf(`
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpo: <http://dbpedia.org/ontology/>
PREFIX dcterms: <http://purl.org/dc/terms/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT *
FROM <http://dbpedia.org>
WHERE {
  ?movie dbpp:starring ?actor .
  ?actor dbpp:birthPlace ?actor_country ;
         rdfs:label ?actor_name .
  ?movie rdfs:label ?movie_name ;
         dcterms:subject ?subject ;
         dbpp:country ?movie_country
  OPTIONAL { ?movie dbpo:genre ?genre }
  {
    { SELECT *
      WHERE {
        { SELECT *
          WHERE {
            ?movie dbpp:starring ?actor .
            ?actor dbpp:birthPlace ?actor_country ;
                   rdfs:label ?actor_name .
            ?movie rdfs:label ?movie_name ;
                   dcterms:subject ?subject ;
                   dbpp:country ?movie_country
            FILTER regex(str(?actor_country), "United_States")
            OPTIONAL { ?movie dbpo:genre ?genre }
          }
        }
        OPTIONAL {
          SELECT DISTINCT ?actor (COUNT(DISTINCT ?movie) AS ?movie_count)
          WHERE {
            ?movie dbpp:starring ?actor .
            ?actor dbpp:birthPlace ?actor_country ;
                   rdfs:label ?actor_name .
            ?movie rdfs:label ?movie_name ;
                   dcterms:subject ?subject ;
                   dbpp:country ?movie_country
            OPTIONAL { ?movie dbpo:genre ?genre }
          }
          GROUP BY ?actor
          HAVING ( COUNT(DISTINCT ?movie) >= %[1]d )
        }
      }
    }
    UNION
    { SELECT *
      WHERE {
        { SELECT DISTINCT ?actor (COUNT(DISTINCT ?movie) AS ?movie_count)
          WHERE {
            ?movie dbpp:starring ?actor .
            ?actor dbpp:birthPlace ?actor_country ;
                   rdfs:label ?actor_name .
            ?movie rdfs:label ?movie_name ;
                   dcterms:subject ?subject ;
                   dbpp:country ?movie_country
            OPTIONAL { ?movie dbpo:genre ?genre }
          }
          GROUP BY ?actor
          HAVING ( COUNT(DISTINCT ?movie) >= %[1]d )
        }
        OPTIONAL {
          SELECT *
          WHERE {
            ?movie dbpp:starring ?actor .
            ?actor dbpp:birthPlace ?actor_country ;
                   rdfs:label ?actor_name .
            ?movie rdfs:label ?movie_name ;
                   dcterms:subject ?subject ;
                   dbpp:country ?movie_country
            FILTER regex(str(?actor_country), "United_States")
            OPTIONAL { ?movie dbpo:genre ?genre }
          }
        }
      }
    }
  }
}`, threshold),
	}
}

// topicModelingTask is case study 6.1.2: titles of recent papers by
// prolific SIGMOD/VLDB authors (Listing 5).
func topicModelingTask() *task {
	const threshold = 12
	return &task{
		ID: "cs2",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			papers := g.dblp.Entities("swrc:InProceedings", "paper").
				Expand("paper",
					rdfframes.Out("dc:creator", "author"),
					rdfframes.Out("dcterm:issued", "date"),
					rdfframes.Out("swrc:series", "conference"),
					rdfframes.Out("dc:title", "title")).
				Cache()
			authors := papers.
				FilterRaw("date", "year(xsd:dateTime(?date)) >= 2005").
				Filter(rdfframes.Conds{"conference": {"In(dblprc:vldb, dblprc:sigmod)"}}).
				GroupBy("author").Count("paper", "n_papers").
				Filter(rdfframes.Conds{"n_papers": {fmt.Sprintf(">=%d", threshold)}}).
				FilterRaw("date", "year(xsd:dateTime(?date)) >= 2005")
			return papers.Join(authors, "author", rdfframes.InnerJoin).SelectCols("title")
		},
		Expert: fmt.Sprintf(`
PREFIX swrc: <http://swrc.ontoware.org/ontology#>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX dc: <http://purl.org/dc/elements/1.1/>
PREFIX dcterm: <http://purl.org/dc/terms/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
PREFIX dblprc: <http://dblp.l3s.de/d2r/resource/conferences/>
SELECT ?title
FROM <http://dblp.l3s.de>
WHERE {
  ?paper dc:title ?title ;
         rdf:type swrc:InProceedings ;
         dcterm:issued ?date ;
         dc:creator ?author
  FILTER ( year(xsd:dateTime(?date)) >= 2005 )
  { SELECT ?author
    WHERE {
      ?paper rdf:type swrc:InProceedings ;
             swrc:series ?conference ;
             dc:creator ?author ;
             dcterm:issued ?date
      FILTER ( ( year(xsd:dateTime(?date)) >= 2005 )
            && ( ?conference IN (dblprc:vldb, dblprc:sigmod) ) )
    }
    GROUP BY ?author
    HAVING ( COUNT(?paper) >= %d )
  }
}`, threshold),
	}
}

// kgEmbeddingTask is case study 6.1.3: all entity-to-entity triples
// (Listing 7).
func kgEmbeddingTask() *task {
	return &task{
		ID: "cs3",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			return g.dblp.FeatureDomainRange("pred", "sub", "obj").
				Filter(rdfframes.Conds{"obj": {"isURI"}})
		},
		Expert: `
SELECT *
FROM <http://dblp.l3s.de>
WHERE {
  ?sub ?pred ?obj .
  FILTER ( isIRI(?obj) )
}`,
	}
}

// Q1: basketball players with their attributes, plus their team's sponsor,
// name, and president if available.
func q1() *task {
	return &task{
		ID: "Q1",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			return g.dbpedia.Entities("dbpr:BasketballPlayer", "player").
				Expand("player",
					rdfframes.Out("dbpp:nationality", "nationality"),
					rdfframes.Out("dbpp:birthPlace", "place"),
					rdfframes.Out("dbpp:birthDate", "born"),
					rdfframes.Out("dbpp:team", "team")).
				Expand("team",
					rdfframes.Out("dbpp:sponsor", "sponsor").Opt(),
					rdfframes.Out("rdfs:label", "team_name").Opt(),
					rdfframes.Out("dbpp:president", "president").Opt())
		},
		Expert: `
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpr: <http://dbpedia.org/resource/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT * FROM <http://dbpedia.org> WHERE {
  ?player a dbpr:BasketballPlayer ;
          dbpp:nationality ?nationality ;
          dbpp:birthPlace ?place ;
          dbpp:birthDate ?born ;
          dbpp:team ?team .
  OPTIONAL { ?team dbpp:sponsor ?sponsor }
  OPTIONAL { ?team rdfs:label ?team_name }
  OPTIONAL { ?team dbpp:president ?president }
}`,
	}
}

// teamDetails builds the frame of teams with sponsor/name/president.
func teamDetails(g *graphs) *rdfframes.RDFFrame {
	return g.dbpedia.Entities("dbpr:BasketballTeam", "team").
		Expand("team",
			rdfframes.Out("dbpp:sponsor", "sponsor"),
			rdfframes.Out("rdfs:label", "team_name"),
			rdfframes.Out("dbpp:president", "president"))
}

// playerCounts builds the per-team player count frame.
func playerCounts(g *graphs) *rdfframes.RDFFrame {
	return g.dbpedia.Seed("player", "dbpp:team", "team").
		GroupBy("team").Count("player", "player_count")
}

const teamCountExpert = `
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpr: <http://dbpedia.org/resource/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT * FROM <http://dbpedia.org> WHERE {
  ?team a dbpr:BasketballTeam ;
        dbpp:sponsor ?sponsor ;
        rdfs:label ?team_name ;
        dbpp:president ?president .
  %s {
    SELECT DISTINCT ?team (COUNT(?player) AS ?player_count)
    WHERE { ?player dbpp:team ?team }
    GROUP BY ?team
  }
}`

// Q2: teams with sponsor, name, president, and player count.
func q2() *task {
	return &task{
		ID: "Q2",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			return teamDetails(g).Join(playerCounts(g), "team", rdfframes.InnerJoin)
		},
		Expert: fmt.Sprintf(teamCountExpert, ""),
	}
}

// Q3: like Q2 but the player count is optional.
func q3() *task {
	return &task{
		ID: "Q3",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			return teamDetails(g).Join(playerCounts(g), "team", rdfframes.LeftOuterJoin)
		},
		Expert: fmt.Sprintf(teamCountExpert, "OPTIONAL"),
	}
}

// Q4: American actors present in both DBpedia and YAGO (cross-graph inner
// join on names).
func q4() *task {
	return &task{
		ID: "Q4",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			dbp := g.dbpedia.Entities("dbpr:Actor", "actor").
				Expand("actor",
					rdfframes.Out("dbpp:birthPlace", "country"),
					rdfframes.Out("rdfs:label", "name")).
				Filter(rdfframes.Conds{"country": {"=dbpr:United_States"}})
			yago := g.yago.Entities("yago:Actor", "yactor").
				Expand("yactor", rdfframes.Out("rdfs:label", "yname"))
			return dbp.JoinOn(yago, "name", "yname", rdfframes.InnerJoin, "name")
		},
		Expert: `
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpr: <http://dbpedia.org/resource/>
PREFIX yago: <http://yago-knowledge.org/resource/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT *
FROM <http://dbpedia.org>
FROM <http://yago-knowledge.org>
WHERE {
  GRAPH <http://dbpedia.org> {
    ?actor a dbpr:Actor ;
           dbpp:birthPlace ?country ;
           rdfs:label ?name .
    FILTER ( ?country = dbpr:United_States )
  }
  GRAPH <http://yago-knowledge.org> {
    ?yactor a yago:Actor ; rdfs:label ?name .
  }
}`,
	}
}

// filmFilters is the shared Q5/Q14 film selection.
func filmBase(g *graphs) *rdfframes.RDFFrame {
	return g.dbpedia.FeatureDomainRange("dbpp:starring", "movie", "actor").
		Expand("movie",
			rdfframes.Out("dbpp:country", "country"),
			rdfframes.Out("dbpp:studio", "studio"),
			rdfframes.Out("dbpo:genre", "genre"),
			rdfframes.Out("dbpp:language", "language")).
		Filter(rdfframes.Conds{
			"country": {"In(dbpr:India, dbpr:United_States)"},
			"studio":  {"!=dbpr:Eskay_Movies"},
			"genre":   {"In(dbpr:Film_score, dbpr:Soundtrack, dbpr:Rock_music, dbpr:House_music, dbpr:Dubstep)"},
		})
}

const filmExpertBody = `
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpr: <http://dbpedia.org/resource/>
PREFIX dbpo: <http://dbpedia.org/ontology/>
SELECT * FROM <http://dbpedia.org> WHERE {
  ?movie dbpp:starring ?actor ;
         dbpp:country ?country ;
         dbpp:studio ?studio ;
         dbpo:genre ?genre ;
         dbpp:language ?language .
  %s
  FILTER ( ?country IN (dbpr:India, dbpr:United_States) )
  FILTER ( ?studio != dbpr:Eskay_Movies )
  FILTER ( ?genre IN (dbpr:Film_score, dbpr:Soundtrack, dbpr:Rock_music, dbpr:House_music, dbpr:Dubstep) )
}`

// Q5: filtered films with actor, director, producer, and language.
func q5() *task {
	return &task{
		ID: "Q5",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			return filmBase(g).Expand("movie",
				rdfframes.Out("dbpp:director", "director"),
				rdfframes.Out("dbpp:producer", "producer"))
		},
		Expert: fmt.Sprintf(filmExpertBody,
			"?movie dbpp:director ?director ; dbpp:producer ?producer ."),
	}
}

// Q6: Q1 without the optional team details (all required).
func q6() *task {
	return &task{
		ID: "Q6",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			return g.dbpedia.Entities("dbpr:BasketballPlayer", "player").
				Expand("player",
					rdfframes.Out("dbpp:nationality", "nationality"),
					rdfframes.Out("dbpp:birthPlace", "place"),
					rdfframes.Out("dbpp:birthDate", "born"),
					rdfframes.Out("dbpp:team", "team")).
				Expand("team",
					rdfframes.Out("dbpp:sponsor", "sponsor"),
					rdfframes.Out("rdfs:label", "team_name"),
					rdfframes.Out("dbpp:president", "president"))
		},
		Expert: `
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpr: <http://dbpedia.org/resource/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT * FROM <http://dbpedia.org> WHERE {
  ?player a dbpr:BasketballPlayer ;
          dbpp:nationality ?nationality ;
          dbpp:birthPlace ?place ;
          dbpp:birthDate ?born ;
          dbpp:team ?team .
  ?team dbpp:sponsor ?sponsor ;
        rdfs:label ?team_name ;
        dbpp:president ?president .
}`,
	}
}

// Q7: players, their teams, and the number of players on each team
// (join of patterns with a grouped frame).
func q7() *task {
	return &task{
		ID: "Q7",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			pairs := g.dbpedia.Seed("player", "dbpp:team", "team")
			return pairs.Join(playerCounts(g), "team", rdfframes.InnerJoin)
		},
		Expert: `
PREFIX dbpp: <http://dbpedia.org/property/>
SELECT * FROM <http://dbpedia.org> WHERE {
  ?player dbpp:team ?team .
  {
    SELECT DISTINCT ?team (COUNT(?player) AS ?player_count)
    WHERE { ?player dbpp:team ?team }
    GROUP BY ?team
  }
}`,
	}
}

// Q8: films with many attributes and several filters.
func q8() *task {
	return &task{
		ID: "Q8",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			return g.dbpedia.FeatureDomainRange("dbpp:starring", "movie", "actor").
				Expand("movie",
					rdfframes.Out("dbpp:director", "director"),
					rdfframes.Out("dbpp:country", "country"),
					rdfframes.Out("dbpp:language", "language"),
					rdfframes.Out("rdfs:label", "title"),
					rdfframes.Out("dbpo:genre", "genre"),
					rdfframes.Out("dbpp:story", "story"),
					rdfframes.Out("dbpp:studio", "studio"),
					rdfframes.Out("dbpp:runtime", "runtime")).
				Filter(rdfframes.Conds{
					"country": {"In(dbpr:United_States, dbpr:India, dbpr:France)"},
					"studio":  {"!=dbpr:Eskay_Movies"},
					"genre":   {"In(dbpr:Drama, dbpr:Comedy, dbpr:Action)"},
					"runtime": {">=90"},
				})
		},
		Expert: `
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpr: <http://dbpedia.org/resource/>
PREFIX dbpo: <http://dbpedia.org/ontology/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT * FROM <http://dbpedia.org> WHERE {
  ?movie dbpp:starring ?actor ;
         dbpp:director ?director ;
         dbpp:country ?country ;
         dbpp:language ?language ;
         rdfs:label ?title ;
         dbpo:genre ?genre ;
         dbpp:story ?story ;
         dbpp:studio ?studio ;
         dbpp:runtime ?runtime .
  FILTER ( ?country IN (dbpr:United_States, dbpr:India, dbpr:France) )
  FILTER ( ?studio != dbpr:Eskay_Movies )
  FILTER ( ?genre IN (dbpr:Drama, dbpr:Comedy, dbpr:Action) )
  FILTER ( ?runtime >= 90 )
}`,
	}
}

// Q9: pairs of films sharing genre and country, with optional second-film
// details.
func q9() *task {
	return &task{
		ID: "Q9",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			left := g.dbpedia.Seed("movie", "dbpo:genre", "genre").
				Expand("movie", rdfframes.Out("dbpp:country", "country"),
					rdfframes.Out("dbpp:studio", "studio"))
			right := g.dbpedia.Seed("movie2", "dbpo:genre", "genre2").
				Expand("movie2", rdfframes.Out("dbpp:country", "country2"),
					rdfframes.Out("dbpp:director", "director2").Opt())
			return left.JoinOn(right, "genre", "genre2", rdfframes.InnerJoin, "genre").
				FilterRaw("country", "?country = ?country2").
				FilterRaw("movie", "?movie != ?movie2")
		},
		Expert: `
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpo: <http://dbpedia.org/ontology/>
SELECT * FROM <http://dbpedia.org> WHERE {
  ?movie dbpo:genre ?genre ;
         dbpp:country ?country ;
         dbpp:studio ?studio .
  ?movie2 dbpo:genre ?genre ;
          dbpp:country ?country2 .
  OPTIONAL { ?movie2 dbpp:director ?director2 }
  FILTER ( ?country = ?country2 )
  FILTER ( ?movie != ?movie2 )
}`,
	}
}

// Q10: athletes with their birthplace and the number of athletes born in
// the same place (expand after group).
func q10() *task {
	return &task{
		ID: "Q10",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			counts := g.dbpedia.Entities("dbpr:Athlete", "athlete").
				Expand("athlete", rdfframes.Out("dbpp:birthPlace", "place")).
				GroupBy("place").Count("athlete", "cohort")
			pairs := g.dbpedia.Entities("dbpr:Athlete", "athlete").
				Expand("athlete", rdfframes.Out("dbpp:birthPlace", "place"))
			return pairs.Join(counts, "place", rdfframes.InnerJoin)
		},
		Expert: `
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpr: <http://dbpedia.org/resource/>
SELECT * FROM <http://dbpedia.org> WHERE {
  ?athlete a dbpr:Athlete ; dbpp:birthPlace ?place .
  {
    SELECT DISTINCT ?place (COUNT(?athlete) AS ?cohort)
    WHERE { ?athlete a dbpr:Athlete ; dbpp:birthPlace ?place }
    GROUP BY ?place
  }
}`,
	}
}

// Q11: actors available in DBpedia or YAGO (full outer join on names).
func q11() *task {
	return &task{
		ID: "Q11",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			dbp := g.dbpedia.Entities("dbpr:Actor", "actor").
				Expand("actor", rdfframes.Out("rdfs:label", "name"))
			yago := g.yago.Entities("yago:Actor", "yactor").
				Expand("yactor", rdfframes.Out("rdfs:label", "yname"))
			return dbp.JoinOn(yago, "name", "yname", rdfframes.FullOuterJoin, "name")
		},
		Expert: `
PREFIX dbpr: <http://dbpedia.org/resource/>
PREFIX yago: <http://yago-knowledge.org/resource/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT *
FROM <http://dbpedia.org>
FROM <http://yago-knowledge.org>
WHERE {
  {
    GRAPH <http://dbpedia.org> { ?actor a dbpr:Actor ; rdfs:label ?name }
    OPTIONAL { GRAPH <http://yago-knowledge.org> { ?yactor a yago:Actor ; rdfs:label ?name } }
  }
  UNION
  {
    GRAPH <http://yago-knowledge.org> { ?yactor a yago:Actor ; rdfs:label ?name }
    OPTIONAL { GRAPH <http://dbpedia.org> { ?actor a dbpr:Actor ; rdfs:label ?name } }
  }
}`,
	}
}

// Q12: team player counts with the team name expanded after grouping
// (Case 1 nesting).
func q12() *task {
	return &task{
		ID: "Q12",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			return g.dbpedia.Seed("player", "dbpp:team", "team").
				GroupBy("team").Count("player", "player_count").
				Expand("team", rdfframes.Out("rdfs:label", "team_name"))
		},
		Expert: `
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
SELECT * FROM <http://dbpedia.org> WHERE {
  {
    SELECT DISTINCT ?team (COUNT(?player) AS ?player_count)
    WHERE { ?player dbpp:team ?team }
    GROUP BY ?team
  }
  ?team rdfs:label ?team_name .
}`,
	}
}

// Q13: film catalog with three optional attributes.
func q13() *task {
	return &task{
		ID: "Q13",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			return g.dbpedia.FeatureDomainRange("dbpp:starring", "movie", "actor").
				Expand("movie",
					rdfframes.Out("dbpp:language", "language"),
					rdfframes.Out("dbpp:country", "country"),
					rdfframes.Out("dbpo:genre", "genre"),
					rdfframes.Out("dbpp:story", "story"),
					rdfframes.Out("dbpp:studio", "studio"),
					rdfframes.Out("dbpp:director", "director").Opt(),
					rdfframes.Out("dbpp:producer", "producer").Opt(),
					rdfframes.Out("dbpp:title", "title").Opt())
		},
		Expert: `
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpo: <http://dbpedia.org/ontology/>
SELECT * FROM <http://dbpedia.org> WHERE {
  ?movie dbpp:starring ?actor ;
         dbpp:language ?language ;
         dbpp:country ?country ;
         dbpo:genre ?genre ;
         dbpp:story ?story ;
         dbpp:studio ?studio .
  OPTIONAL { ?movie dbpp:director ?director }
  OPTIONAL { ?movie dbpp:producer ?producer }
  OPTIONAL { ?movie dbpp:title ?title }
}`,
	}
}

// Q14: the Q5 film selection with optional producer/director/title.
func q14() *task {
	return &task{
		ID: "Q14",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			return filmBase(g).Expand("movie",
				rdfframes.Out("dbpp:producer", "producer").Opt(),
				rdfframes.Out("dbpp:director", "director").Opt(),
				rdfframes.Out("dbpp:title", "title").Opt())
		},
		Expert: fmt.Sprintf(filmExpertBody, `
  OPTIONAL { ?movie dbpp:producer ?producer }
  OPTIONAL { ?movie dbpp:director ?director }
  OPTIONAL { ?movie dbpp:title ?title }`),
	}
}

// Q15: books by prolific American authors, with author and optional book
// details.
func q15() *task {
	return &task{
		ID: "Q15",
		Frame: func(g *graphs) *rdfframes.RDFFrame {
			authors := g.dbpedia.Seed("book", "dbpp:author", "author").
				Expand("author", rdfframes.Out("dbpp:birthPlace", "place")).
				Filter(rdfframes.Conds{"place": {"=dbpr:United_States"}}).
				GroupBy("author").CountDistinct("book", "n_books").
				Filter(rdfframes.Conds{"n_books": {">2"}})
			books := g.dbpedia.Seed("book", "dbpp:author", "author").
				Expand("author",
					rdfframes.Out("dbpp:country", "country"),
					rdfframes.Out("dbpp:education", "education").Opt()).
				Expand("book",
					rdfframes.Out("dbpp:title", "title"),
					rdfframes.Out("dcterms:subject", "subject"),
					rdfframes.Out("dbpp:country", "book_country").Opt(),
					rdfframes.Out("dbpp:publisher", "publisher").Opt())
			return books.Join(authors, "author", rdfframes.InnerJoin)
		},
		Expert: `
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpr: <http://dbpedia.org/resource/>
PREFIX dcterms: <http://purl.org/dc/terms/>
SELECT * FROM <http://dbpedia.org> WHERE {
  ?book dbpp:author ?author ;
        dbpp:title ?title ;
        dcterms:subject ?subject .
  ?author dbpp:country ?country .
  OPTIONAL { ?author dbpp:education ?education }
  OPTIONAL { ?book dbpp:country ?book_country }
  OPTIONAL { ?book dbpp:publisher ?publisher }
  {
    SELECT DISTINCT ?author (COUNT(DISTINCT ?book) AS ?n_books)
    WHERE {
      ?book dbpp:author ?author .
      ?author dbpp:birthPlace ?place .
      FILTER ( ?place = dbpr:United_States )
    }
    GROUP BY ?author
    HAVING ( COUNT(DISTINCT ?book) > 2 )
  }
}`,
	}
}
